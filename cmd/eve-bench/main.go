// Command eve-bench is the repo's performance-trajectory harness: it runs
// the kernel×system matrix on the parallel sweep engine, records both the
// simulated performance of every cell (cycles, Fig 7 breakdowns, the full
// derived-metric set from internal/metrics, flat-memory checksum) and the
// host performance of the simulator itself (min-of-k wall time, allocation
// deltas), and emits a canonical key-sorted BENCH_<label>.json.
//
//	eve-bench -small                          # quick suite, writes BENCH_dev.json
//	eve-bench -small -compare bench/baseline.json
//	eve-bench -small -sim-only -o sim.json    # byte-stable across machines
//
// The simulated section is deterministic by contract: -compare fails (exit
// 1, readable diff table) when *any* simulated metric differs from the
// baseline, and when host wall time regresses beyond -band percent. CI runs
// the comparison on every PR, so a timing-model change must either be
// intentional — refresh bench/baseline.json — or it is a regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the command body, parameterized for tests. Exit codes: 0 on
// success, 1 on a comparison failure or regression, 2 on usage/run errors.
// Diagnostics go through a bufio.Writer so per-line write errors latch; if
// stderr itself is broken there is nowhere left to report that, so the final
// Flush is best-effort. The named return keeps every exit on the return
// path, so the deferred profiler flush always runs.
func realMain(args []string, stdout, stderr io.Writer) (code int) {
	w := bufio.NewWriter(stderr)
	defer func() { _ = w.Flush() }()
	fs := flag.NewFlagSet("eve-bench", flag.ContinueOnError)
	fs.SetOutput(w)
	small := fs.Bool("small", false, "use reduced workload sizes (the CI suite)")
	kernelCSV := fs.String("kernels", "", "comma-separated kernel subset (default: the whole suite)")
	systemCSV := fs.String("systems", "", "comma-separated system subset (default: all Table III systems)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines (simulated results are identical at any count)")
	repeat := fs.Int("repeat", 3, "full-matrix repetitions; host wall time is the min over them")
	label := fs.String("label", "dev", "report label; default output file is BENCH_<label>.json")
	out := fs.String("o", "", "output path (default BENCH_<label>.json; - for stdout)")
	simOnly := fs.Bool("sim-only", false, "omit the host section, making the whole file byte-stable")
	compare := fs.String("compare", "", "baseline BENCH_*.json to diff against; any simulated difference or a host wall-time regression beyond -band fails")
	band := fs.Float64("band", 25, "allowed host wall-time regression in percent (negative disables the host check)")
	prof := telemetry.NewProfiler(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(w, "eve-bench:", err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(w, "eve-bench:", err)
			if code == 0 {
				code = 2
			}
		}
	}()

	cfg := benchConfig{
		label:   *label,
		suite:   "default",
		workers: *parallel,
		repeats: *repeat,
		host:    !*simOnly,
	}
	suite := workloads.Default()
	if *small {
		cfg.suite = "small"
		suite = workloads.Small()
	}
	var err error
	if cfg.kernels, err = workloads.Select(suite, *kernelCSV); err != nil {
		fmt.Fprintln(w, "eve-bench:", err)
		return 2
	}
	if cfg.systems, err = selectSystems(*systemCSV); err != nil {
		fmt.Fprintln(w, "eve-bench:", err)
		return 2
	}

	fmt.Fprintf(w, "eve-bench: %d kernels x %d systems (%s suite), %d workers, %d repetition(s)\n",
		len(cfg.kernels), len(cfg.systems), cfg.suite, cfg.workers, cfg.repeats)
	rep, err := buildReport(cfg)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}

	blob, err := canonicalJSON(rep)
	if err != nil {
		fmt.Fprintln(w, "eve-bench:", err)
		return 2
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}
	if path == "-" {
		if _, err := stdout.Write(blob); err != nil {
			fmt.Fprintln(w, "eve-bench:", err)
			return 2
		}
	} else {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			fmt.Fprintln(w, "eve-bench:", err)
			return 2
		}
		fmt.Fprintf(w, "eve-bench: wrote %s (%d cells)\n", path, len(rep.Simulated.Cells))
	}
	if rep.Host != nil {
		fmt.Fprintf(w, "eve-bench: host wall min %.3fs over %d run(s), %d allocs (%d bytes), %d GC(s) (%.2fms pause)\n",
			float64(rep.Host.WallNSMin)/1e9, rep.Host.Repeats, rep.Host.AllocsMin, rep.Host.AllocBytesMin,
			rep.Host.NumGCMin, float64(rep.Host.GCPauseNSMin)/1e6)
	}

	if *compare == "" {
		return 0
	}
	base, err := loadReport(*compare)
	if err != nil {
		fmt.Fprintln(w, "eve-bench:", err)
		return 2
	}
	diffs, err := compareReports(base, rep, *band)
	if err != nil {
		fmt.Fprintln(w, "eve-bench:", err)
		return 2
	}
	if len(diffs) > 0 {
		fmt.Fprintf(w, "eve-bench: %d metric(s) diverge from %s:\n", len(diffs), *compare)
		if err := renderDiffs(w, diffs); err != nil {
			fmt.Fprintln(w, "eve-bench:", err)
		}
		fmt.Fprintln(w, "eve-bench: FAIL — if the change is intentional, refresh the baseline with:")
		fmt.Fprintf(w, "  go run ./cmd/eve-bench %s -label=baseline -o=%s\n",
			suiteFlag(cfg.suite), *compare)
		return 1
	}
	fmt.Fprintf(w, "eve-bench: OK — simulated section matches %s", *compare)
	if *band >= 0 && base.Host != nil && rep.Host != nil {
		fmt.Fprintf(w, "; host wall within +%g%%", *band)
	}
	fmt.Fprintln(w)
	return 0
}

func suiteFlag(suite string) string {
	if suite == "small" {
		return "-small"
	}
	return ""
}

// loadReport reads and validates a trajectory file.
func loadReport(path string) (*Report, error) {
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
	return &rep, nil
}

// selectSystems resolves a comma-separated subset of Table III system names,
// or the full sweep for an empty selector.
func selectSystems(csv string) ([]sim.Config, error) {
	if csv == "" {
		return sim.AllSystems(), nil
	}
	var out []sim.Config
	for _, name := range strings.Split(csv, ",") {
		s, err := sim.SystemByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
