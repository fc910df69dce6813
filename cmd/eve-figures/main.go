// Command eve-figures regenerates the paper's tables and figures from the
// simulator. With no flags it prints everything; -exp selects one of:
// table1, table2, table3, table4, fig1, fig2, fig4, fig6, fig7, fig8, area.
//
//	eve-figures -exp=fig6             # speedup-over-IO sweep (slow: full matrix)
//	eve-figures -exp=fig2             # taxonomy sweep (fast, no workload runs)
//	eve-figures -small                # use reduced inputs for a quick pass
//	eve-figures -parallel=8 -progress # fan the sweep across 8 workers
//
// The (kernel, system) matrix runs on the parallel sweep engine
// (internal/sweep); results are bit-identical to the serial sweep at any
// worker count, and the run aborts on the first validation failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// jsonResult is the machine-readable form of one (kernel, system) cell.
type jsonResult struct {
	Kernel        string           `json:"kernel"`
	System        string           `json:"system"`
	Cycles        int64            `json:"cycles"`
	SpeedupVsIO   float64          `json:"speedup_vs_io"`
	DynamicInstrs uint64           `json:"dynamic_instrs"`
	TotalOps      uint64           `json:"total_ops"`
	VMUStallFrac  float64          `json:"vmu_stall_frac,omitempty"`
	SpawnCost     int64            `json:"spawn_cost,omitempty"`
	EnergyReadEq  float64          `json:"energy_read_eq,omitempty"`
	Breakdown     map[string]int64 `json:"breakdown,omitempty"`
	// Mem carries the per-level memory-hierarchy counters (l1d, l2, llc,
	// dram) pulled from the run's stats registry.
	Mem map[string]jsonMemLevel `json:"mem,omitempty"`
	// Derived carries the interpreted metric set (per-level miss rate, MPKI,
	// AMAT, stall fractions, DRAM bandwidth utilization, Fig 7 shares)
	// computed by internal/metrics; underivable ratios are 0 with the
	// degenerate flag set, so the field always marshals. Omitted for crashed
	// cells, whose snapshot is empty.
	Derived *metrics.Derived `json:"derived,omitempty"`
	// Error carries the cell's validation failure (or recovered panic),
	// truncated to its stable first line. A cell with an error still emits
	// its row, so one bad cell never hides the rest of the matrix.
	Error string `json:"error,omitempty"`
}

// jsonMemLevel is one memory-hierarchy level's counters in a cell.
type jsonMemLevel struct {
	Accesses   int64   `json:"accesses"`
	Misses     int64   `json:"misses,omitempty"`
	MissRate   float64 `json:"miss_rate,omitempty"`
	Writebacks int64   `json:"writebacks,omitempty"`
	MSHRStall  int64   `json:"mshr_stall_cycles,omitempty"`
}

// memJSON extracts the hierarchy levels from a run's stats snapshot (nil for
// crashed cells, whose snapshot is empty).
func memJSON(st probe.Stats) map[string]jsonMemLevel {
	if len(st) == 0 {
		return nil
	}
	out := make(map[string]jsonMemLevel, 4)
	for _, lvl := range []string{"l1d", "l2", "llc"} {
		var m jsonMemLevel
		m.Accesses, _ = st.Int(lvl + ".accesses")
		m.Misses, _ = st.Int(lvl + ".misses")
		m.MissRate, _ = st.Float(lvl + ".miss_rate")
		m.Writebacks, _ = st.Int(lvl + ".writebacks")
		m.MSHRStall, _ = st.Int(lvl + ".mshr.stall_cycles")
		out[lvl] = m
	}
	var d jsonMemLevel
	d.Accesses, _ = st.Int("dram.accesses")
	out["dram"] = d
	return out
}

// buildJSON flattens the result matrix. The IO baseline column is located
// by name — result rows make no promise about system ordering — and a row
// without an IO column is an error rather than a silently wrong speedup.
// Failed cells keep their row with an error field; speedups involving a
// failed (zero-cycle) run are emitted as 0 rather than ±Inf.
func buildJSON(results [][]sim.Result) ([]jsonResult, error) {
	ioName := sim.Config{Kind: sim.SysIO}.Name()
	var out []jsonResult
	for _, kr := range results {
		io := 0.0
		found := false
		for _, r := range kr {
			if r.System == ioName {
				io = float64(r.Cycles)
				found = true
				break
			}
		}
		if !found {
			kernel := "(empty row)"
			if len(kr) > 0 {
				kernel = kr[0].Kernel
			}
			return nil, fmt.Errorf("no %s baseline column in the result row for %s", ioName, kernel)
		}
		for _, r := range kr {
			jr := jsonResult{
				Kernel:        r.Kernel,
				System:        r.System,
				Cycles:        r.Cycles,
				DynamicInstrs: r.Mix.DynamicInstrs(),
				TotalOps:      r.Mix.TotalOps(),
				VMUStallFrac:  metrics.VMUStall(r.Stats),
				SpawnCost:     metrics.SpawnCost(r.Stats),
				EnergyReadEq:  metrics.EnergyEq(r.Stats),
				Mem:           memJSON(r.Stats),
			}
			if len(r.Stats) > 0 {
				d := metrics.Derive(r.Stats, r.Cycles)
				jr.Derived = &d
			}
			if io > 0 && r.Cycles > 0 {
				jr.SpeedupVsIO = io / float64(r.Cycles)
			}
			if r.Err != nil {
				jr.Error = sweep.FirstLine(r.Err)
			}
			// The JSON omits zero categories.
			jr.Breakdown = metrics.Breakdown(r.Stats)
			for c, v := range jr.Breakdown {
				if v == 0 {
					delete(jr.Breakdown, c)
				}
			}
			out = append(out, jr)
		}
	}
	return out, nil
}

// countFailures tallies failed cells and collects their stable messages.
func countFailures(results [][]sim.Result) (int, []string) {
	n := 0
	var msgs []string
	for _, kr := range results {
		for _, r := range kr {
			if r.Err != nil {
				n++
				msgs = append(msgs, fmt.Sprintf("%s/%s: %s", r.Kernel, r.System, sweep.FirstLine(r.Err)))
			}
		}
	}
	return n, msgs
}

func emitJSON(w io.Writer, results [][]sim.Result) error {
	out, err := buildJSON(results)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func main() {
	os.Exit(run())
}

// run is the command body. The named return keeps every exit on the return
// path, so deferred telemetry flushes (profiler, status server, run log)
// always happen — including on the SIGINT partial-flush exit.
func run() (code int) {
	exp := flag.String("exp", "all", "experiment to regenerate (table1..4, fig1..8, energy, area, all)")
	small := flag.Bool("small", false, "use reduced workload sizes")
	asJSON := flag.Bool("json", false, "emit the raw result matrix as JSON instead of rendered tables")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines (results are identical at any count)")
	tel := telemetry.NewFlags(flag.CommandLine)
	flag.Parse()

	obs, err := tel.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-figures:", err)
		return 2
	}
	defer func() {
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "eve-figures:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	static := map[string]func() string{
		"table1": report.TableI,
		"table2": report.TableII,
		"table3": report.TableIII,
		"fig1":   report.Fig1,
		"fig2":   report.Fig2,
		"fig3":   report.Fig3,
		"fig4":   func() string { return report.Fig4(8) },
		"fig5":   report.Fig5,
		"area":   report.Area,
	}
	needsMatrix := map[string]bool{"table4": true, "fig6": true, "fig7": true, "fig8": true, "energy": true, "all": true}

	which := strings.ToLower(*exp)
	if f, ok := static[which]; ok {
		fmt.Println(f())
		return 0
	}
	if !needsMatrix[which] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		return 2
	}

	kernels := workloads.Default()
	if *small {
		kernels = workloads.Small()
	}
	systems := sim.AllSystems()
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "simulating %d kernels x %d systems on %d workers...\n",
		len(kernels), len(systems), *parallel)
	// ^C / SIGTERM cancels the sweep through the pool's context: in-flight
	// cells finish, the rest are skipped, and JSON mode still flushes the
	// partial matrix instead of dying mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// JSON mode completes the whole matrix and surfaces per-cell errors in
	// the output; rendered-table mode aborts on the first failure, since a
	// table over invalid results is worthless.
	// Observers by contract never touch a Result, so the telemetry chain
	// cannot change any emitted table or JSON byte.
	opts := sweep.Options{Workers: *parallel, AbortOnError: !*asJSON, Context: ctx, Observer: obs}
	results, err := sweep.Matrix(systems, kernels, opts)
	interrupted := ctx.Err() != nil
	if interrupted {
		fmt.Fprintln(os.Stderr, "eve-figures: interrupted; flushing partial results")
	}
	if *asJSON {
		if err := emitJSON(os.Stdout, results); err != nil {
			fmt.Fprintln(os.Stderr, "eve-figures:", err)
			return 1
		}
		if interrupted {
			return 130
		}
		if n, msgs := countFailures(results); n > 0 {
			fmt.Fprintf(os.Stderr, "eve-figures: %d cells failed validation:\n", n)
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, " ", m)
			}
			return 1
		}
		return 0
	}
	if interrupted {
		// Tables over a partial matrix would render misleading numbers.
		return 130
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "VALIDATION FAILURE: %v\n", err)
		return 1
	}
	geo := func(kernel string) bool {
		k, err := workloads.ByName(kernels, kernel)
		return err == nil && k.InGeomean()
	}

	out := map[string]func() string{
		"table4": func() string { return report.TableIV(systems, results) },
		"fig6":   func() string { return report.Fig6(systems, results, geo) },
		"fig7":   func() string { return report.Fig7(systems, results) },
		"fig8":   func() string { return report.Fig8(systems, results) },
		"energy": func() string { return report.Energy(systems, results) },
	}
	if which == "all" {
		for _, name := range []string{"table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "area"} {
			fmt.Println(static[name]())
		}
		for _, name := range []string{"fig6", "table4", "fig7", "fig8", "energy"} {
			fmt.Println(out[name]())
		}
		fmt.Println(report.AreaNormalized(systems, results, geo))
		return 0
	}
	fmt.Println(out[which]())
	if which == "fig6" {
		fmt.Println(report.AreaNormalized(systems, results, geo))
	}
	return 0
}
