package sim

import (
	"runtime"
	"testing"

	"repro/internal/workloads"
)

// TestRunAllocationBudget bounds what one small run allocates on the host.
// A run's setup must cost in proportion to the memory it touches: the flat
// store grows to its high-water mark instead of zeroing its 64 MiB
// capacity, and each cache allocates its lines in one array. Reintroducing
// either eager allocation blows this budget by an order of magnitude.
func TestRunAllocationBudget(t *testing.T) {
	const (
		maxAllocs = 1000
		maxBytes  = 4 << 20
	)
	k := workloads.NewVVAdd(1 << 13)
	cfg := Config{Kind: SysO3EVE, N: 8}
	run := func() {
		if r := Run(cfg, k); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	allocs := testing.AllocsPerRun(3, run)
	if allocs > maxAllocs {
		t.Errorf("sim.Run made %.0f allocations, budget %d", allocs, maxAllocs)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > maxBytes {
		t.Errorf("sim.Run allocated %d bytes, budget %d", bytes, maxBytes)
	}
	t.Logf("sim.Run: %.0f allocations, %d bytes", allocs, bytes)
}
