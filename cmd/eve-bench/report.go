package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Schema identifies the report format; bump on incompatible changes so a
// -compare against an old trajectory file fails loudly instead of weirdly.
const Schema = "eve-bench/v1"

// Report is one BENCH_<label>.json: the repo's performance trajectory entry
// for one commit. The simulated section is bit-stable — identical across
// runs, worker counts and machines — while the host section measures this
// machine's wall-clock and allocation behaviour and is only comparable
// against baselines from comparable hardware (hence the percentage band).
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
	// MemChecksum is the FNV-1a hash of the flat backing store after the
	// run, rendered as a hex string (a raw uint64 would lose bits to JSON's
	// float64 numbers).
	MemChecksum string `json:"mem_checksum"`
	// Breakdown is the Fig 7 cycle attribution (EVE systems only).
	Breakdown map[string]int64 `json:"breakdown,omitempty"`
	// Derived is the full interpreted metric set from internal/metrics.
	Derived metrics.Derived `json:"derived"`
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

// benchConfig parameterizes one harness run.
type benchConfig struct {
	label   string
	suite   string
	kernels []*workloads.Kernel
	systems []sim.Config
	workers int
	repeats int
	host    bool // emit the host section
}

// buildReport runs the kernel×system matrix `repeats` times on the sweep
// pool, records the simulated metrics from the first repetition, verifies
// the later repetitions reproduced them bit-for-bit (a free end-to-end
// determinism tripwire), and measures host wall time and allocations around
// each repetition.
func buildReport(cfg benchConfig) (*Report, error) {
	if cfg.repeats < 1 {
		cfg.repeats = 1
	}
	cells := make([]sweep.Cell, 0, len(cfg.kernels)*len(cfg.systems))
	for _, k := range cfg.kernels {
		for _, s := range cfg.systems {
			k, s := k, s
			cells = append(cells, sweep.Cell{
				Kernel: k.Name,
				System: s.Name(),
				// RunTraced with a nil tracer: same timing as sim.Run, plus
				// the flat-memory checksum the trajectory records.
				Run: func() sim.Result { return sim.RunTraced(s, k, nil) },
			})
		}
	}

	rep := &Report{Schema: Schema, Label: cfg.label, Suite: cfg.suite}
	for _, k := range cfg.kernels {
		rep.Simulated.Kernels = append(rep.Simulated.Kernels, k.Name)
	}
	for _, s := range cfg.systems {
		rep.Simulated.Systems = append(rep.Simulated.Systems, s.Name())
	}

	host := &Host{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workers:   cfg.workers,
		Repeats:   cfg.repeats,
	}

	var first []sim.Result
	for repIdx := 0; repIdx < cfg.repeats; repIdx++ {
		// Quiesce the heap so MemStats deltas attribute to the sweep, not to
		// garbage carried over from the previous repetition.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now() //evelint:allow simpurity -- host-performance measurement is eve-bench's purpose; simulated metrics never see it
		results, err := sweep.ForEach(cells, sweep.Options{Workers: cfg.workers})
		wall := time.Since(start) //evelint:allow simpurity -- host-performance measurement, see above
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("eve-bench: %w", err)
		}

		host.WallNS = append(host.WallNS, wall.Nanoseconds())
		allocs := m1.Mallocs - m0.Mallocs
		allocBytes := m1.TotalAlloc - m0.TotalAlloc
		numGC := m1.NumGC - m0.NumGC
		gcPause := m1.PauseTotalNs - m0.PauseTotalNs
		if repIdx == 0 || wall.Nanoseconds() < host.WallNSMin {
			host.WallNSMin = wall.Nanoseconds()
		}
		if repIdx == 0 || allocs < host.AllocsMin {
			host.AllocsMin = allocs
		}
		if repIdx == 0 || allocBytes < host.AllocBytesMin {
			host.AllocBytesMin = allocBytes
		}
		if repIdx == 0 || numGC < host.NumGCMin {
			host.NumGCMin = numGC
		}
		if repIdx == 0 || gcPause < host.GCPauseNSMin {
			host.GCPauseNSMin = gcPause
		}

		if repIdx == 0 {
			first = results
			continue
		}
		for i := range results {
			if results[i].Cycles != first[i].Cycles || results[i].MemChecksum != first[i].MemChecksum {
				return nil, fmt.Errorf("eve-bench: repetition %d diverged from repetition 0 on %s/%s "+
					"(cycles %d vs %d, checksum %#x vs %#x) — the simulator is nondeterministic",
					repIdx, cells[i].Kernel, cells[i].System,
					results[i].Cycles, first[i].Cycles,
					results[i].MemChecksum, first[i].MemChecksum)
			}
		}
	}

	for _, r := range first {
		rep.Simulated.Cells = append(rep.Simulated.Cells, toCell(r))
	}
	if cfg.host {
		rep.Host = host
	}
	return rep, nil
}

// toCell converts one sweep result into its trajectory record.
func toCell(r sim.Result) SimCell {
	return SimCell{
		Kernel:        r.Kernel,
		System:        r.System,
		Cycles:        r.Cycles,
		DynamicInstrs: r.Mix.DynamicInstrs(),
		TotalOps:      r.Mix.TotalOps(),
		MemChecksum:   fmt.Sprintf("0x%016x", r.MemChecksum),
		Derived:       metrics.Derive(r.Stats, r.Cycles),
		Breakdown:     metrics.Breakdown(r.Stats),
	}
}

// canonicalJSON renders v as canonical, key-sorted, indented JSON with a
// trailing newline. The value is round-tripped through json.Number so
// numeric literals survive verbatim (no float re-parsing), and re-marshaled
// as maps, which encoding/json emits with sorted keys.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
