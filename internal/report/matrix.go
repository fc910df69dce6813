package report

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Schema identifies the report format; bump on incompatible changes so a
// comparison against an old report fails loudly instead of weirdly.
const Schema = "eve-bench/v1"

// Report is the kernel × system matrix as eve-bench writes it
// (BENCH_<label>.json, bench/*.json), and what every matrix figure renders
// from. The simulated section is bit-stable — identical across runs, worker
// counts and machines — while the host section measures one machine's
// wall-clock and allocation behaviour and is only comparable against
// reports from comparable hardware.
type Report struct {
	Schema string `json:"schema"`
	Label  string `json:"label"`
	// Suite is "small" or "default" (workload input scaling).
	Suite     string    `json:"suite"`
	Simulated Simulated `json:"simulated"`
	// Host is omitted in -sim-only mode, making the whole file byte-stable.
	Host *Host `json:"host,omitempty"`
}

// Simulated is the deterministic section: every metric in it must be
// bit-identical for the same (suite, kernels, systems) at any worker count.
// Cells are kernel-major in the Kernels and Systems orders.
type Simulated struct {
	Kernels []string  `json:"kernels"`
	Systems []string  `json:"systems"`
	Cells   []SimCell `json:"cells"`
}

// SimCell is one (kernel, system) measurement.
type SimCell struct {
	Kernel        string `json:"kernel"`
	System        string `json:"system"`
	Cycles        int64  `json:"cycles"`
	DynamicInstrs uint64 `json:"dynamic_instrs"`
	TotalOps      uint64 `json:"total_ops"`
	// Mix is the run's instruction mix, from which Table IV recomputes its
	// percentages.
	Mix Mix `json:"mix"`
	// MemChecksum is the FNV-1a hash of the flat backing store after the
	// run, rendered as a hex string (a raw uint64 would lose bits to JSON's
	// float64 numbers).
	MemChecksum string `json:"mem_checksum"`
	// Breakdown is the Fig 7 cycle attribution (EVE systems only).
	Breakdown map[string]int64 `json:"breakdown,omitempty"`
	// VMUStallFrac is Fig 8's VMU stall fraction (EVE systems only).
	VMUStallFrac float64 `json:"vmu_stall_frac,omitempty"`
	// EnergyReadEq is EVE's SRAM array energy in read-equivalents (EVE
	// systems only).
	EnergyReadEq float64 `json:"energy_read_eq,omitempty"`
	// Derived is the full interpreted metric set from internal/metrics.
	Derived metrics.Derived `json:"derived"`
}

// Mix is isa.Mix under snake_case keys; the two convert into each other.
// ByClass counts vector instructions per isa.Class, in its order: ctrl,
// ialu, imul, xe, us, st, idx.
type Mix struct {
	ScalarOps    uint64                   `json:"scalar_ops"`
	ScalarMuls   uint64                   `json:"scalar_muls"`
	ScalarLoads  uint64                   `json:"scalar_loads"`
	ScalarStore  uint64                   `json:"scalar_store"`
	VectorInstrs uint64                   `json:"vector_instrs"`
	VectorOps    uint64                   `json:"vector_ops"`
	Predicated   uint64                   `json:"predicated"`
	ByClass      [isa.ClassIdx + 1]uint64 `json:"by_class"`
}

// Host is the host-performance section: how expensive the simulator itself
// was on this machine. Wall time is min-of-k over Repeats full-matrix runs;
// allocation counts are runtime.MemStats deltas around each run, also
// min-of-k (GC scheduling adds noise in both directions).
type Host struct {
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	NumCPU        int     `json:"num_cpu"`
	Workers       int     `json:"workers"`
	Repeats       int     `json:"repeats"`
	WallNS        []int64 `json:"wall_ns"`
	WallNSMin     int64   `json:"wall_ns_min"`
	AllocsMin     uint64  `json:"allocs_min"`
	AllocBytesMin uint64  `json:"alloc_bytes_min"`
	// NumGCMin and GCPauseNSMin are GC-cycle and stop-the-world-pause
	// deltas around a repetition, min-of-k like the allocation deltas: how
	// hard the collector worked to run the matrix once.
	NumGCMin     uint32 `json:"num_gc_min"`
	GCPauseNSMin uint64 `json:"gc_pause_ns_min"`
}

// Run simulates every kernel on every system on the sweep pool under opts
// and returns the simulated section. A sweep that fails or is cancelled
// still returns every cell, failed and skipped ones included; the error
// says the section is not a whole, valid matrix.
func Run(systems []sim.Config, kernels []*workloads.Kernel, opts sweep.Options) (Simulated, error) {
	var s Simulated
	cells := make([]sweep.Cell, 0, len(kernels)*len(systems))
	for _, k := range kernels {
		s.Kernels = append(s.Kernels, k.Name)
		for _, c := range systems {
			cells = append(cells, sweep.Cell{
				Kernel: k.Name,
				System: c.Name(),
				// RunTraced with a nil tracer: same timing as sim.Run, plus
				// the flat-memory checksum the report records.
				Run: func() sim.Result { return sim.RunTraced(c, k, nil) },
			})
		}
	}
	for _, c := range systems {
		s.Systems = append(s.Systems, c.Name())
	}
	results, err := sweep.ForEach(cells, opts)
	for _, r := range results {
		s.Cells = append(s.Cells, toCell(r))
	}
	return s, err
}

// toCell converts one sweep result into its report record.
func toCell(r sim.Result) SimCell {
	return SimCell{
		Kernel:        r.Kernel,
		System:        r.System,
		Cycles:        r.Cycles,
		DynamicInstrs: r.Mix.DynamicInstrs(),
		TotalOps:      r.Mix.TotalOps(),
		Mix:           Mix(r.Mix),
		MemChecksum:   fmt.Sprintf("0x%016x", r.MemChecksum),
		Breakdown:     metrics.Breakdown(r.Stats),
		VMUStallFrac:  metrics.VMUStall(r.Stats),
		EnergyReadEq:  metrics.EnergyEq(r.Stats),
		Derived:       metrics.Derive(r.Stats, r.Cycles),
	}
}

// Load reads a report file and checks its cells' layout.
func Load(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema == "" {
		return nil, fmt.Errorf("%s: not an eve-bench report (no schema field)", path)
	}
	if err := rep.Simulated.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// InGeomean is the geomean set of Fig 6 and the area-normalized table: the
// suite's kernels that Kernel.InGeomean admits.
func InGeomean(suite []*workloads.Kernel) func(kernel string) bool {
	return func(kernel string) bool {
		k, err := workloads.ByName(suite, kernel)
		return err == nil && k.InGeomean()
	}
}

// ioSystem is the system every Fig 6 speedup is normalized to.
var ioSystem = sim.Config{Kind: sim.SysIO}.Name()

// row returns kernel i's cells, one per system in the Systems order.
func (s *Simulated) row(i int) []SimCell {
	n := len(s.Systems)
	return s.Cells[i*n : (i+1)*n]
}

// check reports whether the cells are the Kernels × Systems matrix in
// kernel-major order, the layout Run returns and the renderers index.
func (s *Simulated) check() error {
	if len(s.Cells) != len(s.Kernels)*len(s.Systems) {
		return fmt.Errorf("%d cells for %d kernels x %d systems", len(s.Cells), len(s.Kernels), len(s.Systems))
	}
	for i, c := range s.Cells {
		k, sys := s.Kernels[i/len(s.Systems)], s.Systems[i%len(s.Systems)]
		if c.Kernel != k || c.System != sys {
			return fmt.Errorf("cell %d is %s on %s, want %s on %s", i, c.Kernel, c.System, k, sys)
		}
	}
	return nil
}

// Speedups returns every cell's speedup over the base system's run of the
// same kernel, as [kernel][system] in the section's orders. The base column
// is looked up by name: a section without one is an error, never a speedup
// against whichever system comes first.
func Speedups(s *Simulated, base string) ([][]float64, error) {
	b := slices.Index(s.Systems, base)
	if b < 0 {
		return nil, fmt.Errorf("report: no %s column to normalize against", base)
	}
	out := make([][]float64, len(s.Kernels))
	for i := range out {
		row := s.row(i)
		for _, c := range row {
			out[i] = append(out[i], stats.Speedup(float64(row[b].Cycles), float64(c.Cycles)))
		}
	}
	return out, nil
}

// Geomeans returns Fig 6's geomean row: each system's geometric-mean
// speedup over IO, across the kernels geo admits (all of them for a nil
// geo) in the section's kernel order. IO itself has no entry.
func Geomeans(s *Simulated, geo func(kernel string) bool) (map[string]float64, error) {
	sp, err := Speedups(s, ioSystem)
	if err != nil {
		return nil, err
	}
	per := map[string][]float64{}
	for i, k := range s.Kernels {
		if geo != nil && !geo(k) {
			continue
		}
		for j, sys := range s.Systems {
			if sys != ioSystem {
				per[sys] = append(per[sys], sp[i][j])
			}
		}
	}
	out := make(map[string]float64, len(per))
	for sys, v := range per {
		out[sys] = stats.Geomean(v)
	}
	return out, nil
}
