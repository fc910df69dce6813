package mem

import (
	"testing"

	"repro/internal/probe"
)

// TestUntouchedCacheMaterializesNothing: the readers that run before or
// without any install — Contains, Partition (spawn and teardown) and the
// interval sampler's ProbeGauges — treat a nil page as all-invalid lines,
// so a cache nobody installs into stays without storage.
func TestUntouchedCacheMaterializesNothing(t *testing.T) {
	c := NewCache(LLCConfig, DefaultDRAM())
	reg := probe.NewRegistry()
	reg.Register("llc", c)
	reg.Gauges(0)
	if allocs := testing.AllocsPerRun(10, func() {
		c.Contains(0x12340)
		c.Contains(uint64(LLCConfig.SizeBytes) - LineBytes)
	}); allocs != 0 {
		t.Errorf("Contains on an untouched cache made %.0f allocations", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if inv, dirty := c.Partition(LLCConfig.Ways / 2); inv != 0 || dirty != 0 {
			t.Fatalf("Partition of an untouched cache invalidated %d lines (%d dirty)", inv, dirty)
		}
		c.Partition(0)
	}); allocs != 0 {
		t.Errorf("Partition on an untouched cache made %.0f allocations", allocs)
	}
	if n := c.materialized(); n != 0 {
		t.Fatalf("untouched cache materialized %d pages", n)
	}

	// A miss materializes exactly the page of the set it installs into.
	c.Access(0x12340, false, 0)
	if n := c.materialized(); n != 1 {
		t.Fatalf("one install materialized %d pages, want 1", n)
	}
}

// FuzzCacheStorage drives a paged Cache and the eager one-array oracle
// through the same Access / Partition sequence, over Table III's L1D, L2
// and LLC and a custom geometry smaller than one page, and requires the
// same Result, Stats and Contains at every step and the same lines in
// every set at the end. Each op is four bytes: the op, a set selector
// spread over every page, a tag among 2×Ways (so sets fill and evict, and
// Partition's way count), and a time step. The checked-in corpus under
// testdata/fuzz/FuzzCacheStorage seeds dirty evictions, partitions of
// touched and untouched caches, and the custom geometry.
func FuzzCacheStorage(f *testing.F) {
	geoms := [...]CacheConfig{L1DConfig, L2Config, LLCConfig,
		{Name: "tiny", SizeBytes: 8 * 2 * LineBytes, Ways: 2, Banks: 2, HitLatency: 1, MSHRs: 2}}
	f.Fuzz(func(t *testing.T, geom uint8, ops []byte) {
		cfg := geoms[int(geom)%len(geoms)]
		lazy := NewCache(cfg, DefaultDRAM())
		eager := newEagerCache(cfg, DefaultDRAM())
		nsets := lazy.nsets
		var now int64
		for i := 0; i+4 <= len(ops) && i < 4*1024; i += 4 {
			op, b1, b2, b3 := ops[i]%8, ops[i+1], ops[i+2], ops[i+3]
			set := int(b1) * max(nsets/256, 1) % nsets
			tag := uint64(b2) % uint64(2*cfg.Ways)
			addr := (tag*uint64(nsets)+uint64(set))*LineBytes + uint64(b3%LineBytes)
			now += int64(b3 >> 3)
			switch op {
			case 0, 1, 2, 3, 4, 5:
				write := op >= 4
				if got, want := lazy.Access(addr, write, now), eager.Access(addr, write, now); got != want {
					t.Fatalf("op %d: Access(%#x, %v, %d) = %+v, oracle %+v", i/4, addr, write, now, got, want)
				}
			case 6:
				ways := int(b2) % (cfg.Ways + 1)
				li, ld := lazy.Partition(ways)
				ei, ed := eager.Partition(ways)
				if li != ei || ld != ed {
					t.Fatalf("op %d: Partition(%d) = (%d, %d), oracle (%d, %d)", i/4, ways, li, ld, ei, ed)
				}
			}
			if got, want := lazy.Stats(), eager.stats; got != want {
				t.Fatalf("op %d: Stats %+v, oracle %+v", i/4, got, want)
			}
			if got, want := lazy.Contains(addr), eager.Contains(addr); got != want {
				t.Fatalf("op %d: Contains(%#x) = %v, oracle %v", i/4, addr, got, want)
			}
		}
		for s := 0; s < nsets; s++ {
			got, want := lazy.storedSet(s), eager.set(s)
			for w := range want {
				l := line{}
				if got != nil {
					l = got[w]
				}
				if l != want[w] {
					t.Fatalf("set %d way %d holds %+v, oracle %+v", s, w, l, want[w])
				}
			}
		}
	})
}
