package sim

import (
	"runtime"
	"testing"

	"repro/internal/workloads"
)

// runAllocs runs k on cfg and reports the allocations and bytes one sim.Run
// costs the host, averaged over a few runs.
func runAllocs(t *testing.T, cfg Config, k *workloads.Kernel) (allocs float64, bytes uint64) {
	t.Helper()
	run := func() {
		if r := Run(cfg, k); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	allocs = testing.AllocsPerRun(3, run)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestRunAllocationBudget bounds what one small run allocates on the host.
// A run's setup must cost in proportion to the memory it touches: the flat
// store grows to its high-water mark instead of zeroing its 64 MiB
// capacity, and each cache allocates its lines in pages of sets on first
// touch. Reintroducing either eager allocation blows this budget.
func TestRunAllocationBudget(t *testing.T) {
	const (
		maxAllocs = 1000
		maxBytes  = 2 << 20
	)
	allocs, bytes := runAllocs(t, Config{Kind: SysO3EVE, N: 8}, workloads.NewVVAdd(1<<13))
	if allocs > maxAllocs {
		t.Errorf("sim.Run made %.0f allocations, budget %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("sim.Run allocated %d bytes, budget %d", bytes, maxBytes)
	}
	t.Logf("sim.Run: %.0f allocations, %d bytes", allocs, bytes)
}

// TestSmallCellAllocationBudget bounds a design-space cell: a scale-256
// vvadd on O3+EVE-1 over Table III's 2 MiB LLC touches a few dozen lines
// and at most 256 elements of the few vector registers it uses, so its
// setup must not pay for the whole LLC line array or for all 32 registers.
func TestSmallCellAllocationBudget(t *testing.T) {
	const maxBytes = 48 << 10
	allocs, bytes := runAllocs(t, Config{Kind: SysO3EVE, N: 1}, workloads.NewVVAdd(256))
	if bytes > maxBytes {
		t.Errorf("sim.Run allocated %d bytes, budget %d", bytes, maxBytes)
	}
	t.Logf("sim.Run: %.0f allocations, %d bytes", allocs, bytes)
}

// TestEmitAllocatesNothing: in steady state a vector instruction travels
// from the builder through System.Emit into each vector engine's Handle —
// and a scalar event into the core — without allocating. The warm-up pass
// grows the reused buffers and fills EVE's micro-program cost cache; the
// amortized growth left (the engines' dispatch queues and the caches'
// outstanding-miss maps, a few allocations per hundred passes) rounds to
// zero, while one allocation per instruction would be thousands a pass.
func TestEmitAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{{Kind: SysO3IV}, {Kind: SysO3DV}, {Kind: SysO3EVE, N: 8}} {
		s := NewSystem(cfg, 1<<20)
		b := s.Builder()
		base := b.Mem.AllocU32(4096)
		emit := func() {
			for i0 := 0; i0 < 4096; {
				vl := b.SetVL(4096 - i0)
				addr := base + uint64(4*i0)
				b.VId(1)
				b.SllVX(2, 1, 2)
				b.Load(3, addr)
				b.LoadStride(4, addr, 8)
				b.Add(4, 3, 4)
				b.Store(4, addr)
				b.LoadIdx(5, addr, 2)
				b.StoreIdx(5, addr, 2)
				b.RGather(6, 5, 1)
				b.Slide1Up(7, 6, 1)
				b.RedSum(8, 7, 1)
				b.MvXS(8)
				b.ScalarOps(3)
				b.ScalarLoad(addr)
				i0 += vl
			}
			b.Fence()
		}
		if allocs := testing.AllocsPerRun(50, emit); allocs != 0 {
			t.Errorf("%s: emitting made %.2f allocations per pass, want 0", cfg.Name(), allocs)
		}
	}
}
