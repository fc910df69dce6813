// Command eve-figures regenerates the paper's tables and figures from the
// simulator. With no flags it prints everything; -exp selects one of:
// table1, table2, table3, table4, fig1, fig2, fig4, fig6, fig7, fig8, area.
//
//	eve-figures -exp=fig6             # speedup-over-IO sweep (slow: full matrix)
//	eve-figures -exp=fig2             # taxonomy sweep (fast, no workload runs)
//	eve-figures -small                # use reduced inputs for a quick pass
//	eve-figures -parallel=8 -progress # fan the sweep across 8 workers
//
// The (kernel, system) matrix runs on the parallel sweep engine into the
// simulated section of the report eve-bench writes (internal/report), and
// every matrix figure renders from that section; results are bit-identical
// to the serial sweep at any worker count, and the run aborts on the first
// validation failure. `eve-bench -sim-only -repeat=1 -o -` emits the same
// matrix as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run())
}

// run is the command body. The named return keeps every exit on the return
// path, so deferred telemetry flushes (profiler, status server, run log)
// always happen — including on the SIGINT exit.
func run() (code int) {
	exp := flag.String("exp", "all", "experiment to regenerate (table1..4, fig1..8, energy, area, all)")
	small := flag.Bool("small", false, "use reduced workload sizes")
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

	which := strings.ToLower(*exp)
	figs := experiment(which)
	if figs == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		return 2
	}
	kernels := workloads.Default()
	if *small {
		kernels = workloads.Small()
	}
	var matrix report.Simulated
	if which == "all" || !slices.Contains(staticFigures, which) {
		systems := sim.AllSystems()
		if *parallel <= 0 {
			*parallel = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "simulating %d kernels x %d systems on %d workers...\n",
			len(kernels), len(systems), *parallel)
		// ^C / SIGTERM cancels the sweep through the pool's context: in-flight
		// cells finish and the rest are skipped. The run aborts on the first
		// failure, since a table over invalid results is worthless.
		// Observers by contract never touch a Result, so the telemetry chain
		// cannot change any rendered byte.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		matrix, err = report.Run(systems, kernels,
			sweep.Options{Workers: *parallel, AbortOnError: true, Context: ctx, Observer: obs})
		if ctx.Err() != nil {
			// Tables over a partial matrix would render misleading numbers.
			fmt.Fprintln(os.Stderr, "eve-figures: interrupted")
			return 130
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "VALIDATION FAILURE: %v\n", err)
			return 1
		}
	}
	out, err := render(figs, &matrix, report.InGeomean(kernels))
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-figures:", err)
		return 1
	}
	fmt.Print(out)
	return 0
}

// staticFigures need no simulation. "all" prints them, then the matrix
// figures in this order; the area-normalized table ("areanorm") follows
// fig6 and ends "all".
var staticFigures = []string{"table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "area"}

// experiment lists the figures an -exp value prints, in order, or nil for
// an unknown experiment.
func experiment(which string) []string {
	switch which {
	case "all":
		return append(slices.Clone(staticFigures), "fig6", "table4", "fig7", "fig8", "energy", "areanorm")
	case "fig6":
		return []string{"fig6", "areanorm"}
	case "table4", "fig7", "fig8", "energy":
		return []string{which}
	}
	if slices.Contains(staticFigures, which) {
		return []string{which}
	}
	return nil
}

// render returns what eve-figures prints for figs: each figure and a
// newline. The matrix figures read s; Fig 6 and the area-normalized table
// take their geomeans over the kernels geo admits.
func render(figs []string, s *report.Simulated, geo func(kernel string) bool) (string, error) {
	text := func(f func() string) func() (string, error) {
		return func() (string, error) { return f(), nil }
	}
	figures := map[string]func() (string, error){
		"table1":   text(report.TableI),
		"table2":   text(report.TableII),
		"table3":   text(report.TableIII),
		"fig1":     text(report.Fig1),
		"fig2":     text(report.Fig2),
		"fig3":     text(report.Fig3),
		"fig4":     text(func() string { return report.Fig4(8) }),
		"fig5":     text(report.Fig5),
		"area":     text(report.Area),
		"fig6":     func() (string, error) { return report.Fig6(s, geo) },
		"table4":   func() (string, error) { return report.TableIV(s) },
		"fig7":     text(func() string { return report.Fig7(s) }),
		"fig8":     text(func() string { return report.Fig8(s) }),
		"energy":   text(func() string { return report.Energy(s) }),
		"areanorm": func() (string, error) { return report.AreaNormalized(s, geo) },
	}
	var b strings.Builder
	for _, f := range figs {
		out, err := figures[f]()
		if err != nil {
			return "", err
		}
		b.WriteString(out + "\n")
	}
	return b.String(), nil
}
