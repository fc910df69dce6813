// Package eve is the public API of the EVE (Ephemeral Vector Engines)
// reproduction: cycle-approximate simulation of SRAM compute-in-memory
// vector engines carved out of a private L2 cache, alongside the scalar and
// vector baselines of the HPCA 2023 paper.
//
// Three entry points cover most uses:
//
//   - Simulate runs one of the paper's benchmarks on a chosen system and
//     returns cycles, speedups and EVE's execution-time breakdown.
//   - NewMachine builds a machine you can program directly with RVV-style
//     vector intrinsics (strip-mined against the machine's hardware vector
//     length) and then Finish to obtain the timing.
//   - The analytical entry points (AreaOverhead, CycleTimeNS, Fig2Sweep)
//     expose the paper's circuit-evaluation models.
//
// See examples/ for runnable programs.
package eve

import (
	"fmt"

	"repro/internal/analytic"
	ieve "repro/internal/eve"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/vreg"
	"repro/internal/workloads"
)

// System identifies a simulated system configuration (Table III).
type System struct {
	kind     sim.Kind
	n        int
	interval int64
}

// The simulated systems.
var (
	IO   = System{kind: sim.SysIO}
	O3   = System{kind: sim.SysO3}
	O3IV = System{kind: sim.SysO3IV}
	O3DV = System{kind: sim.SysO3DV}
)

// EVE returns the O3+EVE-n system for a parallelization factor n in
// {1, 2, 4, 8, 16, 32}.
func EVE(n int) System {
	switch n {
	case 1, 2, 4, 8, 16, 32:
		return System{kind: sim.SysO3EVE, n: n}
	}
	panic(fmt.Sprintf("eve: invalid parallelization factor %d", n))
}

// Systems returns the full Fig 6 sweep: IO, O3, O3+IV, O3+DV and every
// EVE-n design point.
func Systems() []System {
	out := []System{IO, O3, O3IV, O3DV}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		out = append(out, EVE(n))
	}
	return out
}

// Name reports the paper's label for the system.
func (s System) Name() string { return s.config().Name() }

// IsEVE reports whether the system is an EVE design point.
func (s System) IsEVE() bool { return s.kind == sim.SysO3EVE }

func (s System) config() sim.Config {
	return sim.Config{Kind: s.kind, N: s.n, Interval: s.interval}
}

// WithIntervals returns the same system with interval sampling enabled:
// every window simulated cycles the run records per-component counter
// deltas, gauge values and EVE reconfiguration events into
// Result.Intervals. Sampling observes without perturbing — the simulated
// outcome is byte-identical with or without it. A window ≤ 0 disables
// sampling (the default).
func (s System) WithIntervals(window int64) System {
	if window < 0 {
		window = 0
	}
	s.interval = window
	return s
}

// AreaFactor reports the system's area relative to the bare O3 core
// (§VII-B).
func (s System) AreaFactor() float64 {
	return analytic.SystemAreaFactor(s.Name())
}

// Benchmark is one of the suite's kernels: the paper's Table IV seven plus
// the RiVEC-breadth extensions (spmv, streamcluster-dist, redux).
type Benchmark struct{ k *workloads.Kernel }

// Benchmarks returns the ten-kernel suite at the standard scaled sizes.
func Benchmarks() []Benchmark {
	ks := workloads.Default()
	out := make([]Benchmark, len(ks))
	for i, k := range ks {
		out[i] = Benchmark{k: k}
	}
	return out
}

// BenchmarkByName finds a suite kernel: vvadd, mmult, k-means, pathfinder,
// jacobi-2d, backprop, sw, spmv, streamcluster-dist or redux.
func BenchmarkByName(name string) (Benchmark, error) {
	k, err := workloads.ByName(workloads.Default(), name)
	if err != nil {
		return Benchmark{}, err
	}
	return Benchmark{k: k}, nil
}

// Name reports the kernel name.
func (b Benchmark) Name() string { return b.k.Name }

// Input describes the kernel's input size.
func (b Benchmark) Input() string { return b.k.Input }

// InGeomean reports membership in the paper's geomean set.
func (b Benchmark) InGeomean() bool { return b.k.InGeomean() }

// Breakdown is EVE's execution-time split by Fig 7 category, in cycles.
type Breakdown map[string]int64

// Result summarizes one simulation.
type Result struct {
	System string
	Kernel string
	Cycles int64
	// DynamicInstrs counts scalar plus vector instructions; TotalOps weights
	// vector instructions by their active vector length (Table IV's DOp).
	DynamicInstrs uint64
	TotalOps      uint64
	VectorPct     float64
	// Breakdown is non-nil for EVE systems (Fig 7 categories).
	Breakdown Breakdown
	// VMUStallFraction is Fig 8's metric (EVE systems).
	VMUStallFraction float64
	// SpawnCost is the L2 reconfiguration cost charged at EVE spawn (§V-E).
	SpawnCost int64
	// Stats is the flattened hierarchical counter snapshot of every simulated
	// component, keyed by dotted path (core.insts, l2.miss_rate,
	// eve.cycles, ...); distributions expand to .count/.sum/.min/
	// .max/.mean keys. See internal/probe for the naming scheme.
	Stats map[string]float64
	// Snapshot is the same end-of-run registry snapshot in structured form:
	// sorted entries supporting prefix queries (Snapshot.Filter("l2.")),
	// typed lookups and the gem5-style text report. Stats is its Flatten.
	Snapshot probe.Stats
	// Intervals is the cycle-windowed time series — per-window counter
	// deltas, gauges, and EVE's reconfiguration timeline — when the system
	// was built with WithIntervals. Nil otherwise.
	Intervals *probe.Series
}

// Derived computes the interpreted metric set for this result — per-level
// miss rates, MPKI, AMAT, stall fractions, DRAM bandwidth utilization and
// Fig 7 category shares — via the internal/metrics derivation layer.
// Underivable ratios (a crashed or access-free run) come back as 0 with the
// Degenerate flags set; see metrics.Derived.
func (r Result) Derived() metrics.Derived {
	return metrics.Derive(r.Snapshot, r.Cycles)
}

// Simulate runs the benchmark on the system, validating the computation's
// output against the kernel's reference; a validation failure is returned
// as an error.
func Simulate(s System, b Benchmark) (Result, error) {
	r := sim.Run(s.config(), b.k)
	if r.Err != nil {
		return Result{}, fmt.Errorf("eve: %s on %s produced wrong results: %w",
			b.Name(), s.Name(), r.Err)
	}
	return fromSimResult(r), nil
}

func fromSimResult(r sim.Result) Result {
	return Result{
		System:           r.System,
		Kernel:           r.Kernel,
		Cycles:           r.Cycles,
		DynamicInstrs:    r.Mix.DynamicInstrs(),
		TotalOps:         r.Mix.TotalOps(),
		VectorPct:        r.Mix.VectorPct(),
		Breakdown:        metrics.Breakdown(r.Stats),
		VMUStallFraction: metrics.VMUStall(r.Stats),
		SpawnCost:        metrics.SpawnCost(r.Stats),
		Stats:            r.Stats.Flatten(),
		Snapshot:         r.Stats,
		Intervals:        r.Intervals,
	}
}

// SimulateMatrix runs every benchmark on every system concurrently on a
// bounded pool of workers goroutines (≤ 0 selects GOMAXPROCS) and returns
// results indexed [benchmark][system]. Each cell is an independent
// simulation, so the matrix is deterministic: it equals cell-for-cell what
// serial Simulate calls would produce, at any worker count. The first
// validation failure aborts the sweep and is returned as the error.
func SimulateMatrix(systems []System, benches []Benchmark, workers int) ([][]Result, error) {
	cfgs := make([]sim.Config, len(systems))
	for i, s := range systems {
		cfgs[i] = s.config()
	}
	ks := make([]*workloads.Kernel, len(benches))
	for i, b := range benches {
		ks[i] = b.k
	}
	raw, err := sweep.Matrix(cfgs, ks, sweep.Options{Workers: workers, AbortOnError: true})
	if err != nil {
		return nil, fmt.Errorf("eve: %w", err)
	}
	out := make([][]Result, len(raw))
	for i, row := range raw {
		out[i] = make([]Result, len(row))
		for j, r := range row {
			out[i][j] = fromSimResult(r)
		}
	}
	return out, nil
}

// Speedup reports how much faster r is than base.
func (r Result) Speedup(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Circuit-evaluation entry points (§VI).

// AreaOverhead reports EVE-n's total L2 area overhead (EVE-8: 11.7%).
func AreaOverhead(n int) float64 { return analytic.TotalOverhead(n) }

// CycleTimeNS reports the EVE-n SRAM cycle time (1.025ns for n ≤ 8).
func CycleTimeNS(n int) float64 { return analytic.CycleTimeNS(n) }

// Fig2Point is one point of the §II taxonomy sweep.
type Fig2Point struct {
	N                 int
	InSituALUs        int
	AddCycles         int
	MulCycles         int
	AddThroughputNorm float64
	MulThroughputNorm float64
}

// Fig2Sweep returns the measured latency/throughput sweep of Fig 2.
func Fig2Sweep() []Fig2Point {
	rows := analytic.Fig2()
	out := make([]Fig2Point, len(rows))
	for i, r := range rows {
		out[i] = Fig2Point{
			N: r.N, InSituALUs: r.ALUs,
			AddCycles: r.AddLat, MulCycles: r.MulLat,
			AddThroughputNorm: r.AddThpN, MulThroughputNorm: r.MulThpN,
		}
	}
	return out
}

// HardwareVL reports the hardware vector length of an EVE-n built from half
// a 512 KB L2 (Table III).
func HardwareVL(n int) int {
	return vreg.Standard(n).HWVL(ieve.DefaultConfig(n).Arrays)
}
