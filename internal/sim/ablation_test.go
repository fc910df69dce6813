package sim

import (
	"fmt"
	"testing"

	"repro/internal/eve"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Ablations over design knobs that sim.Config deliberately does not expose:
// the EVE engine's own configuration and a contended memory system. They
// assemble the system through build, exactly as Run does, with the custom
// piece swapped in. Run them with
//
//	go test ./internal/sim -run '^$' -bench 'Ablation|CMPContention' -benchtime=1x

// runCustomEVE simulates k on O3+EVE-n (n = ecfg.N) with engine
// configuration ecfg over hierarchy h.
func runCustomEVE(ecfg eve.Config, h *mem.Hierarchy, k *workloads.Kernel) Result {
	return build(Config{Kind: SysO3EVE, N: ecfg.N}, h, ecfg, runMemBytes, nil, nil).run(k, runOpts{})
}

func benchCustomEVE(b *testing.B, ecfg eve.Config, hier func() *mem.Hierarchy, k *workloads.Kernel) {
	var r Result
	for i := 0; i < b.N; i++ {
		r = runCustomEVE(ecfg, hier(), k)
	}
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	b.ReportMetric(float64(r.Cycles), "cycles")
}

// BenchmarkAblationDTU sweeps the transpose-unit count on the
// transpose-sensitive kernel (pathfinder, §VII-B).
func BenchmarkAblationDTU(b *testing.B) {
	k := workloads.NewPathfinder(6, 1<<12)
	for _, dtus := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("pathfinder/EVE-4/dtus-%d", dtus), func(b *testing.B) {
			cfg := eve.DefaultConfig(4)
			cfg.DTUs = dtus
			benchCustomEVE(b, cfg, mem.NewHierarchy, k)
		})
	}
}

// BenchmarkAblationVL sweeps the number of EVE SRAM arrays (hardware vector
// length) at a fixed parallelization factor.
func BenchmarkAblationVL(b *testing.B) {
	k := workloads.NewVVAdd(1 << 13)
	for _, arrays := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("vvadd/EVE-8/arrays-%d", arrays), func(b *testing.B) {
			cfg := eve.DefaultConfig(8)
			cfg.Arrays = arrays
			benchCustomEVE(b, cfg, mem.NewHierarchy, k)
		})
	}
}

// BenchmarkCMPContention runs the streaming kernel on EVE-8 with 0-3
// co-running cores' worth of synthetic DRAM traffic — the shared-LLC CMP
// setting the paper frames EVE in (§I).
func BenchmarkCMPContention(b *testing.B) {
	k := workloads.NewVVAdd(1 << 13)
	for _, co := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("vvadd/EVE-8/co-runners-%d", co), func(b *testing.B) {
			benchCustomEVE(b, eve.DefaultConfig(8), func() *mem.Hierarchy {
				return mem.NewContendedHierarchy(co, 300)
			}, k)
		})
	}
}
