package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

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
// pool, records the simulated section of the first repetition, verifies
// the later repetitions reproduced it (a free end-to-end determinism
// tripwire), and measures host wall time and allocations around each
// repetition.
func buildReport(cfg benchConfig) (*report.Report, error) {
	if cfg.repeats < 1 {
		cfg.repeats = 1
	}
	rep := &report.Report{Schema: report.Schema, Label: cfg.label, Suite: cfg.suite}
	host := &report.Host{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workers:   cfg.workers,
		Repeats:   cfg.repeats,
	}

	for repIdx := 0; repIdx < cfg.repeats; repIdx++ {
		// Quiesce the heap so MemStats deltas attribute to the sweep, not to
		// garbage carried over from the previous repetition.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now() //evelint:allow simpurity -- host-performance measurement is eve-bench's purpose; simulated metrics never see it
		s, err := report.Run(cfg.systems, cfg.kernels, sweep.Options{Workers: cfg.workers})
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
			rep.Simulated = s
			continue
		}
		for i, c := range s.Cells {
			first := rep.Simulated.Cells[i]
			if c.Cycles != first.Cycles || c.MemChecksum != first.MemChecksum {
				return nil, fmt.Errorf("eve-bench: repetition %d diverged from repetition 0 on %s/%s "+
					"(cycles %d vs %d, checksum %s vs %s) — the simulator is nondeterministic",
					repIdx, c.Kernel, c.System, c.Cycles, first.Cycles, c.MemChecksum, first.MemChecksum)
			}
		}
	}

	if cfg.host {
		rep.Host = host
	}
	return rep, nil
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
