// Command eve-faults runs a deterministic fault-injection campaign over the
// EVE SRAM compute substrate and emits the classified results as JSON.
//
//	eve-faults -seed=42 -sites=16                  # full small suite, all fault kinds
//	eve-faults -kernels=vvadd,k-means -sites=32    # selected kernels
//	eve-faults -kinds=bitflip,stuck-sa -parallel=8 # restrict kinds, fan out
//	eve-faults -seed=42 -o=campaign.json           # write the report to a file
//
// Each (kernel, fault site) cell re-executes the kernel's vector instructions
// on a bit-level circuit stack with one fault armed, and is classified
// against a fault-free baseline as masked, detected, sdc, or crash. The
// report is a pure function of (seed, kernel set, sites, kinds, -n): the
// same invocation produces byte-identical JSON across runs and across
// -parallel values.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// emitReport writes the campaign report as indented JSON.
func emitReport(w io.Writer, rep *faults.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// summarize renders the one-line outcome tally printed to stderr.
func summarize(rep *faults.Report) string {
	s := rep.Summary
	return fmt.Sprintf("%d cells: %d masked, %d detected, %d sdc, %d crash",
		s.Total, s.Masked, s.Detected, s.SDC, s.Crash)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command body over the given arguments, writing the report to
// stdout and diagnostics to os.Stderr. The named return keeps every exit on
// the return path, so deferred telemetry flushes (profiler, status server,
// run log) always happen — including on the SIGINT partial-report exit.
func run(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("eve-faults", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "campaign seed; same seed, same report")
	n := fs.Int("n", 32, "EVE parallelization factor (1,2,4,8,16,32)")
	kernels := fs.String("kernels", "", "comma-separated kernel names (default: whole suite)")
	full := fs.Bool("full", false, "use full-size workloads instead of the reduced suite")
	sites := fs.Int("sites", 16, "fault sites sampled per kernel")
	kinds := fs.String("kinds", "all", "fault kinds: all, or a comma list of bitflip,stuck-sa,wordline-drop")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines (results are identical at any count)")
	maxCycles := fs.Int("max-uprog-cycles", 0, "per-micro-program watchdog budget (0: default)")
	verify := fs.Bool("verify-baseline", true, "require the fault-free baseline to reproduce the golden run")
	out := fs.String("o", "", "write the JSON report to this file instead of stdout")
	tel := telemetry.NewFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	obs, err := tel.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 2
	}
	defer func() {
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "eve-faults:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	suite := workloads.Small()
	if *full {
		suite = workloads.Default()
	}
	ks, err := workloads.Select(suite, *kernels)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 2
	}
	kindList, err := faults.ParseKinds(*kinds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 2
	}

	// ^C / SIGTERM cancels the campaign through the sweep context: finished
	// cells are kept and the partial report is still flushed as valid JSON.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := faults.Config{
		System:         sim.Config{Kind: sim.SysO3EVE, N: *n, MaxUProgCycles: *maxCycles},
		Kernels:        ks,
		SitesPerKernel: *sites,
		Kinds:          kindList,
		Seed:           *seed,
		Workers:        *parallel,
		VerifyBaseline: *verify,
		Context:        ctx,
		// Observers by contract never touch a Result, so the telemetry
		// chain cannot change a report byte.
		Observer: obs,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "injecting %d sites x %d kernels on %s (seed %d, %d workers)...\n",
		*sites, len(ks), cfg.System.Name(), *seed, *parallel)

	rep, err := faults.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 1
	}

	w := stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eve-faults:", err)
			return 1
		}
		w = f
	}
	if err := emitReport(w, rep); err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 1
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "eve-faults:", err)
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, summarize(rep))
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "eve-faults: interrupted; the report above covers only the cells that finished")
		return 130
	}
	return 0
}
