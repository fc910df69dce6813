package mem

import (
	"testing"
	"testing/quick"
)

func TestFlatRoundTrip(t *testing.T) {
	f := NewFlat(1 << 16)
	a := f.AllocU32(16)
	b := f.AllocU32(16)
	if a == b {
		t.Fatal("allocations overlap")
	}
	f.StoreU32(a, 0xDEADBEEF)
	f.StoreI32(b, -7)
	if f.LoadU32(a) != 0xDEADBEEF {
		t.Fatal("u32 round trip failed")
	}
	if f.LoadI32(b) != -7 {
		t.Fatal("i32 round trip failed")
	}
}

func TestFlatProperty(t *testing.T) {
	f := NewFlat(1 << 16)
	base := f.AllocU32(256)
	fn := func(idx uint8, v uint32) bool {
		addr := base + uint64(idx)*4
		f.StoreU32(addr, v)
		return f.LoadU32(addr) == v
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlatOutOfBoundsPanics(t *testing.T) {
	f := NewFlat(1 << 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on OOB access")
		}
	}()
	f.LoadU32(uint64(f.Size()))
}

func TestCacheHitMiss(t *testing.T) {
	dram := DefaultDRAM()
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 12, Ways: 2, HitLatency: 2, MSHRs: 4}, dram)
	r1 := c.Access(0x1000, false, 0)
	if r1.Done <= dram.Latency {
		t.Fatalf("first access should miss to DRAM: done=%d", r1.Done)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after miss: %+v", st)
	}
	r2 := c.Access(0x1000, false, r1.Done+1)
	if got := r2.Done - r2.Accepted; got != 2 {
		t.Fatalf("hit latency = %d, want 2", got)
	}
	if c.Stats().Hits != 1 {
		t.Fatal("second access should hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, tiny cache: lines mapping to the same set evict LRU.
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 2 * LineBytes, Ways: 2, HitLatency: 1, MSHRs: 4}, DefaultDRAM())
	// One set only. Fill both ways, then access a third line.
	c.Access(0*LineBytes, false, 0)
	c.Access(1*LineBytes, false, 100)
	c.Access(0*LineBytes, false, 200) // touch line 0: line 1 becomes LRU
	c.Access(2*LineBytes, false, 300) // evicts line 1
	if !c.Contains(0 * LineBytes) {
		t.Fatal("line 0 should remain")
	}
	if c.Contains(1 * LineBytes) {
		t.Fatal("line 1 should have been evicted (LRU)")
	}
	if !c.Contains(2 * LineBytes) {
		t.Fatal("line 2 should be resident")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 2 * LineBytes, Ways: 2, HitLatency: 1, MSHRs: 4}, DefaultDRAM())
	c.Access(0*LineBytes, true, 0) // dirty
	c.Access(1*LineBytes, false, 100)
	c.Access(2*LineBytes, false, 200) // evicts line 0 (dirty) -> writeback
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

// TestMSHRLimitSerializes checks that a burst of misses beyond the MSHR
// count has its tail delayed — the VMU stall effect of Fig 8.
func TestMSHRLimitSerializes(t *testing.T) {
	run := func(mshrs int) int64 {
		c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 16, Ways: 4, HitLatency: 1, MSHRs: mshrs}, DefaultDRAM())
		var last int64
		for i := 0; i < 32; i++ {
			r := c.Access(uint64(i)*LineBytes*257, false, int64(i)) // distinct sets
			if r.Done > last {
				last = r.Done
			}
		}
		return last
	}
	few, many := run(2), run(32)
	if few <= many {
		t.Fatalf("2 MSHRs should be slower than 32: %d vs %d", few, many)
	}
	// With 2 MSHRs the requests must report acceptance stalls.
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 16, Ways: 4, HitLatency: 1, MSHRs: 2}, DefaultDRAM())
	stalled := false
	for i := 0; i < 16; i++ {
		r := c.Access(uint64(i)*LineBytes*257, false, 0)
		if r.Accepted > 0 {
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("expected MSHR acceptance stalls")
	}
	if c.Stats().MSHRStall == 0 {
		t.Fatal("MSHRStall counter not incremented")
	}
}

func TestMissMerging(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 14, Ways: 4, HitLatency: 1, MSHRs: 8}, DefaultDRAM())
	r1 := c.Access(0x4000, false, 0)
	r2 := c.Access(0x4000, false, 1) // same line, while outstanding
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("second access to an in-flight line: %d hits, %d misses; want it to hit", st.Hits, st.Misses)
	}
	if r2.Done != r1.Done {
		t.Fatalf("second access finished at %d, want it to wait for the fill at %d", r2.Done, r1.Done)
	}
}

func TestDRAMBandwidthSerializes(t *testing.T) {
	d := DefaultDRAM()
	r1 := d.Access(0, false, 0)
	r2 := d.Access(4096, false, 0)
	if r2.Accepted <= r1.Accepted {
		t.Fatal("bus should serialize concurrent transfers")
	}
	if d.Accesses() != 2 {
		t.Fatal("access count wrong")
	}
}

func TestHierarchySpawnTeardown(t *testing.T) {
	h := NewHierarchy()
	// Fill one L2 set across all 8 ways (stride = nsets lines), one dirty,
	// so the released ways hold data.
	nsets := uint64(L2Config.SizeBytes / (LineBytes * L2Config.Ways))
	for i := uint64(0); i < 8; i++ {
		h.L2.Access(i*nsets*LineBytes, i == 5, int64(i*200))
	}
	cost := h.SpawnEVE()
	if cost <= 0 {
		t.Fatalf("spawn cost = %d, want > 0 with resident lines", cost)
	}
	if !h.EVEActive() {
		t.Fatal("EVE should be active")
	}
	if again := h.SpawnEVE(); again != 0 {
		t.Fatalf("double spawn cost = %d, want 0", again)
	}
	h.TeardownEVE()
	if h.EVEActive() {
		t.Fatal("teardown failed")
	}
	// Teardown is free and restores ways; a fresh spawn with a cold cache
	// costs nothing.
	if cost := h.SpawnEVE(); cost != 0 {
		t.Fatalf("spawn over invalid ways cost %d, want 0", cost)
	}
}

func TestPartitionHalvesCapacity(t *testing.T) {
	h := NewHierarchy()
	h.SpawnEVE()
	// Fill more lines than 4 ways can hold in one set: 5 lines mapping to
	// the same set of the partitioned L2 must cause an eviction.
	nsets := uint64(L2Config.SizeBytes / (LineBytes * L2Config.Ways))
	base := uint64(0x100000)
	for i := uint64(0); i < 5; i++ {
		h.L2.Access(base+i*nsets*LineBytes, false, int64(i*200))
	}
	resident := 0
	for i := uint64(0); i < 5; i++ {
		if h.L2.Contains(base + i*nsets*LineBytes) {
			resident++
		}
	}
	if resident > 4 {
		t.Fatalf("partitioned L2 holds %d lines in one set; want ≤ 4", resident)
	}
}

// TestCacheSetsDoNotAlias fills every set with Ways distinct tags: all of
// them must stay resident, so no set's ways overlap its neighbour's in the
// set-major page they share. Halving the ways then invalidates exactly the upper
// half of every set, leaving the first-installed lines.
func TestCacheSetsDoNotAlias(t *testing.T) {
	const ways, nsets = 4, 8
	c := NewCache(CacheConfig{Name: "c", SizeBytes: nsets * ways * LineBytes, Ways: ways, HitLatency: 1, MSHRs: 4}, DefaultDRAM())
	addr := func(set, way int) uint64 { return uint64(way*nsets+set) * LineBytes }
	tick := int64(0)
	for s := 0; s < nsets; s++ {
		for w := 0; w < ways; w++ {
			c.Access(addr(s, w), false, tick)
			tick += 1000
		}
	}
	for s := 0; s < nsets; s++ {
		for w := 0; w < ways; w++ {
			if !c.Contains(addr(s, w)) {
				t.Fatalf("set %d tag %d evicted by a fill of another set", s, w)
			}
		}
	}
	if inv, _ := c.Partition(ways / 2); inv != nsets*ways/2 {
		t.Fatalf("Partition(%d) invalidated %d lines, want %d", ways/2, inv, nsets*ways/2)
	}
	for s := 0; s < nsets; s++ {
		for w := 0; w < ways; w++ {
			if got, want := c.Contains(addr(s, w)), w < ways/2; got != want {
				t.Fatalf("after Partition: set %d tag %d resident=%v, want %v", s, w, got, want)
			}
		}
	}
}

func TestBankConflictStalls(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 16, Ways: 4, Banks: 2, HitLatency: 1, MSHRs: 32}, DefaultDRAM())
	// Warm two lines in the same bank.
	c.Access(0, false, 0)
	c.Access(2*LineBytes, false, 1000)
	// Simultaneous hits to the same bank serialize.
	r1 := c.Access(0, false, 2000)
	r2 := c.Access(2*LineBytes, false, 2000)
	if r2.Accepted <= r1.Accepted {
		t.Fatal("same-bank accesses should serialize")
	}
	if c.Stats().BankStall == 0 {
		t.Fatal("bank stall not counted")
	}
}

func TestTrafficGeneratorConsumesBandwidth(t *testing.T) {
	run := func(coRunners int) int64 {
		h := NewContendedHierarchy(coRunners, 300)
		var tt int64
		var last int64
		for i := 0; i < 512; i++ {
			r := h.LLC.Access(uint64(0x100000+i*LineBytes), false, tt)
			tt = r.Accepted + 1
			if r.Done > last {
				last = r.Done
			}
		}
		return last
	}
	alone, crowded := run(0), run(3)
	if crowded <= alone {
		t.Fatalf("3 co-runners (%d cycles) should slow a 512-line stream vs alone (%d)", crowded, alone)
	}
}
