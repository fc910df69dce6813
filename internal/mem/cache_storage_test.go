package mem

import (
	"maps"
	"math/rand/v2"
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
				l := eagerLine{}
				if got != nil {
					l = got[w]
				}
				if l != want[w] {
					t.Fatalf("set %d way %d holds %+v, oracle %+v", s, w, l, want[w])
				}
			}
		}
		sameOutstanding(t, lazy, eager)
	})
}

// sameOutstanding requires c's outstanding-miss entries, resident and
// stale together, to equal the oracle's map.
func sameOutstanding(t *testing.T, c *Cache, eager *eagerCache) {
	t.Helper()
	got, err := c.outstandingEntries()
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, eager.outstanding) {
		t.Fatalf("%d outstanding entries, oracle %d (or their times differ)", len(got), len(eager.outstanding))
	}
}

// TestOutstandingMissesAtScale drives the Cache and the one-map oracle
// through the same deterministic stream on Table III's L2 and LLC
// geometries, far longer than FuzzCacheStorage's inputs. Fresh lines are
// read from a quarter of the sets, so they evict each other; the stream
// mixes them with re-hits before and after their fills, write hits and
// write-allocates, re-misses to lines that were evicted (each reading the
// lower level again), and a Partition mid-stream that is later restored.
// Every Result and the Stats must agree at every step, and the resident
// lines' outstanding-miss entries must equal the oracle's map at every
// checkpoint and at the end, as must every stored line.
func TestOutstandingMissesAtScale(t *testing.T) {
	for _, cfg := range []CacheConfig{L2Config, LLCConfig} {
		t.Run(cfg.Name, func(t *testing.T) {
			lazyDRAM := DefaultDRAM()
			lazy := NewCache(cfg, lazyDRAM)
			eager := newEagerCache(cfg, DefaultDRAM())
			nsets := uint64(lazy.nsets)
			used := nsets / 4
			lineOf := func(f uint64) uint64 { return (f/used*nsets + f%used) * LineBytes }
			rng := rand.New(rand.NewPCG(1, uint64(cfg.Ways)))

			const ops = 48000
			var (
				now     int64
				fresh   uint64              // fresh lines read so far
				fetched = map[uint64]bool{} // lines read from the lower level so far
				refetch int                 // read misses to a line fetched before
				waited  int                 // hits that waited for their line's fill
			)
			for i := 0; i < ops; i++ {
				switch i {
				case ops / 3:
					li, ld := lazy.Partition(cfg.Ways / 2)
					ei, ed := eager.Partition(cfg.Ways / 2)
					if li != ei || ld != ed || li == 0 {
						t.Fatalf("op %d: Partition = (%d, %d), oracle (%d, %d)", i, li, ld, ei, ed)
					}
				case 2 * ops / 3:
					lazy.Partition(0)
					eager.Partition(0)
				}
				var addr uint64
				write := false
				switch r := rng.IntN(100); {
				case r < 50 || fresh < 64: // a fresh line: a read miss
					addr = lineOf(fresh)
					fresh++
				case r < 62: // a recent line, likely before its fill completes
					addr = lineOf(fresh - 1 - uint64(rng.IntN(8)))
				case r < 70: // a recent line after a pause: past its fill
					now += 200
					addr = lineOf(fresh - 1 - uint64(rng.IntN(32)))
				case r < 80: // an old line, likely evicted
					addr = lineOf(uint64(rng.Int64N(int64(fresh))))
				case r < 90: // a write hit to a recent line
					addr, write = lineOf(fresh-1-uint64(rng.IntN(16))), true
				default: // a write-allocate of a fresh line
					addr, write = lineOf(fresh), true
					fresh++
				}
				addr += uint64(rng.IntN(LineBytes))
				now += rng.Int64N(3)

				hits, reads := eager.stats.Hits, lazyDRAM.reads
				got, want := lazy.Access(addr, write, now), eager.Access(addr, write, now)
				if got != want {
					t.Fatalf("op %d: Access(%#x, %v, %d) = %+v, oracle %+v", i, addr, write, now, got, want)
				}
				switch lineAddr := addr / LineBytes; {
				case eager.stats.Hits > hits:
					if got.Done > got.Accepted+cfg.HitLatency {
						waited++
					}
				case lazyDRAM.reads > reads:
					if fetched[lineAddr] {
						refetch++
					}
					fetched[lineAddr] = true
				}
				if got, want := lazy.Stats(), eager.stats; got != want {
					t.Fatalf("op %d: Stats %+v, oracle %+v", i, got, want)
				}
				if i%4096 == 0 || i == ops/3 || i == 2*ops/3 {
					sameOutstanding(t, lazy, eager)
				}
			}
			sameOutstanding(t, lazy, eager)
			for s := 0; s < lazy.nsets; s++ {
				got, want := lazy.storedSet(s), eager.set(s)
				for w := range want {
					l := eagerLine{}
					if got != nil {
						l = got[w]
					}
					if l != want[w] {
						t.Fatalf("set %d way %d holds %+v, oracle %+v", s, w, l, want[w])
					}
				}
			}

			// The stream must have reached what it is for.
			st := eager.stats
			if lazyDRAM.reads <= 8192 || refetch == 0 || waited == 0 ||
				st.Writebacks == 0 || st.Invalidates == 0 || st.MSHRStall == 0 {
				t.Fatalf("stream too tame: %d lower-level reads, %d refetching re-misses, %d hits that waited, stats %+v",
					lazyDRAM.reads, refetch, waited, st)
			}
			t.Logf("%d lower-level reads, %d refetching re-misses, %d hits that waited", lazyDRAM.reads, refetch, waited)
		})
	}
}

// TestReMissRefetchesEvictedLine: a line's outstanding-miss entry leaves
// the cache with the line, so a later miss to a line that was evicted or
// invalidated reads the lower level once, reinstalls the line and finishes
// at miss latency, whether the line left long after its fill completed,
// while the fill was still in flight, or was invalidated by Partition while
// pending. The Cache and the one-map oracle must both do so.
func TestReMissRefetchesEvictedLine(t *testing.T) {
	type cache interface {
		Access(addr uint64, write bool, t int64) Result
		Partition(ways int) (invalidated, dirty int)
		Contains(addr uint64) bool
	}
	const at = 1 << 20 // every earlier fill, MSHR and bus transfer is over
	for _, cfg := range []CacheConfig{L2Config, LLCConfig} {
		stride := uint64(cfg.SizeBytes/(LineBytes*cfg.Ways)) * LineBytes // same set, next tag
		// Each way of leaving drives c from empty until line 0 is absent,
		// and reports when line 0's fill completes and when it left.
		leave := []struct {
			name     string
			inFlight bool // line 0 leaves before its fill completes
			run      func(c cache) (fill, left int64)
		}{
			{"evicted after its fill", false, func(c cache) (int64, int64) {
				fill := c.Access(0, false, 0).Done
				for k := 1; k <= cfg.Ways; k++ {
					c.Access(uint64(k)*stride, false, int64(1000*k))
				}
				return fill, int64(1000 * cfg.Ways)
			}},
			{"evicted before its fill", true, func(c cache) (int64, int64) {
				fill := c.Access(0, false, 0).Done
				for k := 1; k <= cfg.Ways; k++ {
					c.Access(uint64(k)*stride, false, int64(k))
				}
				return fill, int64(cfg.Ways)
			}},
			{"invalidated while pending", true, func(c cache) (int64, int64) {
				half := cfg.Ways / 2
				for k := 1; k <= half; k++ { // line 0 lands in the first released way
					c.Access(uint64(k)*stride, false, int64(k-1))
				}
				fill := c.Access(0, false, int64(half)).Done
				if inv, _ := c.Partition(half); inv != 1 {
					t.Fatalf("%s: Partition(%d) invalidated %d lines, want line 0 alone", cfg.Name, half, inv)
				}
				c.Partition(0)
				return fill, int64(half)
			}},
		}
		for _, l := range leave {
			lazyDRAM, eagerDRAM := DefaultDRAM(), DefaultDRAM()
			for _, c := range []struct {
				name string
				c    cache
				dram *DRAM
			}{
				{"Cache", NewCache(cfg, lazyDRAM), lazyDRAM},
				{"oracle", newEagerCache(cfg, eagerDRAM), eagerDRAM},
			} {
				what := cfg.Name + " " + c.name + " " + l.name
				fill, left := l.run(c.c)
				if c.c.Contains(0) {
					t.Fatalf("%s: line 0 is still resident", what)
				}
				if (left < fill) != l.inFlight {
					t.Fatalf("%s: line 0 left at %d, its fill completes at %d", what, left, fill)
				}
				reads := c.dram.reads
				got := c.c.Access(0, false, at)
				if want := (Result{Accepted: at, Done: at + 2*cfg.HitLatency + dramLatency}); got != want {
					t.Errorf("%s: re-miss = %+v, a miss gives %+v", what, got, want)
				}
				if n := c.dram.reads - reads; n != 1 || !c.c.Contains(0) {
					t.Errorf("%s: re-miss read the lower level %d times and reinstalled the line: %v; want 1 read and a reinstall",
						what, n, c.c.Contains(0))
				}
			}
		}
	}
}
