package cpu

import (
	"runtime"
	"testing"

	"repro/internal/mem"
)

func TestInOrderOverlapBoundedByWindow(t *testing.T) {
	// The IO core's small window allows a little memory-level parallelism
	// (its L1D has 16 MSHRs, Table III) but a burst of cold misses must
	// still serialize in groups: 16 misses take several times one miss.
	one := func() int64 {
		mh := mem.NewHierarchy()
		c := New(IOConfig, mh)
		c.Load(0x10000)
		return c.Now()
	}()
	many := func() int64 {
		mh := mem.NewHierarchy()
		c := New(IOConfig, mh)
		for i := 0; i < 16; i++ {
			c.Load(uint64(0x10000 + i*4096))
		}
		return c.Now()
	}()
	if many < 3*one {
		t.Fatalf("16 cold misses on IO took %d cycles vs %d for one; window should bound overlap", many, one)
	}
}

func TestOutOfOrderOverlapsLoads(t *testing.T) {
	run := func(cfg Config) int64 {
		mh := mem.NewHierarchy()
		c := New(cfg, mh)
		for i := 0; i < 16; i++ {
			c.Load(uint64(0x10000 + i*4096))
		}
		return c.Now()
	}
	io, o3 := run(IOConfig), run(O3Config)
	if o3*2 > io {
		t.Fatalf("O3 should overlap misses far more than IO: IO=%d cycles, O3=%d cycles", io, o3)
	}
}

func TestIssueWidth(t *testing.T) {
	mh := mem.NewHierarchy()
	io := New(IOConfig, mh)
	o3 := New(O3Config, mh)
	io.Ops(800)
	o3.Ops(800)
	if got := io.Now(); got < 800 {
		t.Fatalf("IO 800 ops in %d cycles; must be ≥ 800", got)
	}
	if got := o3.Now(); got > 110 {
		t.Fatalf("O3 800 ops in %d cycles; 8-wide should take ~100", got)
	}
}

func TestWindowLimitsOverlap(t *testing.T) {
	// A tiny window forces even a wide core to expose load latency.
	narrow := Config{Name: "narrow", Width: 8, Window: 2, MulLatency: 3}
	run := func(cfg Config) int64 {
		mh := mem.NewHierarchy()
		c := New(cfg, mh)
		for i := 0; i < 8; i++ {
			c.Load(uint64(0x40000 + i*4096))
		}
		return c.Now()
	}
	if narrowT, wide := run(narrow), run(O3Config); narrowT <= wide {
		t.Fatalf("window=2 (%d cycles) should be slower than window=192 (%d)", narrowT, wide)
	}
}

func TestMulLatency(t *testing.T) {
	mh := mem.NewHierarchy()
	c := New(IOConfig, mh)
	c.Muls(10)
	if got := c.Now(); got < 10+IOConfig.MulLatency {
		t.Fatalf("10 muls in %d cycles", got)
	}
	if c.Insts != 10 {
		t.Fatalf("inst count = %d", c.Insts)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	mh := mem.NewHierarchy()
	c := New(IOConfig, mh)
	for i := 0; i < 8; i++ {
		c.Store(uint64(0x50000 + i*4096))
	}
	// Stores retire from the write buffer: roughly one cycle each even for
	// cold lines.
	if got := c.Now(); got > 40 {
		t.Fatalf("8 stores took %d cycles; write buffer should hide misses", got)
	}
}

func TestCachedReloadFast(t *testing.T) {
	mh := mem.NewHierarchy()
	c := New(IOConfig, mh)
	c.Load(0x1234)
	cold := c.Now()
	c.Load(0x1234)
	if warm := c.Now() - cold; warm > 5 {
		t.Fatalf("warm reload took %d cycles; should be an L1 hit", warm)
	}
}

func TestAdvanceTo(t *testing.T) {
	c := New(IOConfig, mem.NewHierarchy())
	c.Ops(5)
	c.AdvanceTo(1000)
	if c.Now() != 1000 {
		t.Fatalf("Now = %d after AdvanceTo(1000)", c.Now())
	}
	c.AdvanceTo(500) // never goes backward
	if c.Now() != 1000 {
		t.Fatal("AdvanceTo moved time backward")
	}
}

// TestWindowAllocationIsBounded: the reorder window compacts its drained
// prefix before it grows, so its backing array stays within a small
// multiple of the live entries (at most Window+1), and a core's allocation
// over 10⁵ mixed Ops, Muls, Load and Store calls is within a small
// constant of its allocation over 10³. Both touch the same 32 lines, so
// the hierarchy allocates the same for both.
func TestWindowAllocationIsBounded(t *testing.T) {
	for _, cfg := range []Config{IOConfig, O3Config} {
		var c *Core
		run := func(n int) uint64 {
			drive := func() {
				c = New(cfg, mem.NewHierarchy())
				for i := 0; i < n; i++ {
					switch i % 4 {
					case 0:
						c.Ops(3)
					case 1:
						c.Load(uint64(0x10000 + i*64%4096))
					case 2:
						c.Muls(1)
					case 3:
						c.Store(uint64(0x20000 + i*64%4096))
					}
				}
			}
			// The fewest bytes of a few runs: anything else the process
			// allocates meanwhile only adds.
			least := ^uint64(0)
			for range 5 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				drive()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		short, long := run(1_000), run(100_000)
		if long > short+1<<10 {
			t.Errorf("%s: a core allocated %d bytes over 10⁵ calls, %d over 10³", cfg.Name, long, short)
		}
		if maxCap := 4 * (cfg.Window + 1); cap(c.window) > maxCap {
			t.Errorf("%s: window array holds %d entries, want at most %d (4 × (Window+1))", cfg.Name, cap(c.window), maxCap)
		}
		t.Logf("%s: %d bytes over 10³ calls, %d over 10⁵; window array %d entries", cfg.Name, short, long, cap(c.window))
	}
}
