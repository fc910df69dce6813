// Command eve-explore walks a declarative design-space campaign — cache
// geometry, MSHR/bank counts, DRAM latency, EVE-n segmentation, input
// scale/seed — with crash-safe checkpointing: every finished cell is
// appended to a CRC-guarded journal, SIGINT/SIGTERM checkpoint and exit
// cleanly, and a rerun over the same -journal skips the settled cells and
// reproduces the uninterrupted run's report byte-identically.
//
//	eve-explore -space=space.json -journal=c.log -o=report.json
//	eve-explore -space=space.json -size                  # count cells, run nothing
//	eve-explore -space=- -journal=c.log                  # continue a killed campaign
//	eve-explore -space=space.json -journal=c.log -cell-timeout=30s
//
// The space file is a JSON campaign.Space; axes left empty pin their
// Table III values (seeds default to the canonical 0, n to the full
// factor sweep). Each cell runs once: a failed cell is recorded
// failed-with-reason and the campaign completes around it, and a cell that
// outruns -cell-timeout is journaled timeout, which a rerun runs again.
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

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// loadSpace reads the campaign space from path ("-" = stdin) and validates
// it, so a space Run would reject is a usage error before any work.
func loadSpace(path string) (campaign.Space, error) {
	var s campaign.Space
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return s, fmt.Errorf("read space: %w", err)
	}
	if s, err = campaign.ParseSpace(data); err != nil {
		return s, fmt.Errorf("parse space %s: %w", path, err)
	}
	return s, s.Validate()
}

// emitReport writes the report as indented JSON, to stdout or, if path is
// set, a file. The rendering is deterministic, which is what the
// crash-smoke byte-diff checks.
func emitReport(stdout io.Writer, path string, rep any) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command body over the given arguments, writing the report
// (or the -size count) to stdout and diagnostics to os.Stderr. The named
// return keeps every exit on the return path, so deferred telemetry
// flushes (profiler, status server, run log) always happen — including on
// the SIGINT checkpoint exit.
func run(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("eve-explore", flag.ContinueOnError)
	spacePath := fs.String("space", "", "campaign space JSON file (\"-\" for stdin); required")
	size := fs.Bool("size", false, "print the space's cell count and exit without simulating")
	journal := fs.String("journal", "", "checkpoint journal path; a rerun over it skips the settled cells and re-runs timed-out ones (empty: no crash safety)")
	out := fs.String("o", "", "write the JSON report to this file instead of stdout")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines (results are identical at any count)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell wall-clock budget (0: no watchdog)")
	interval := fs.Int64("interval", 0, "sample each cell's stats registry every N simulated cycles; feeds the /metrics eve_probe_window_* section, never the report or journal (0: off)")
	tel := telemetry.NewFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	obs, err := tel.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-explore:", err)
		return 2
	}
	defer func() {
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "eve-explore:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *spacePath == "" {
		fmt.Fprintln(os.Stderr, "eve-explore: -space is required (a JSON campaign space)")
		return 2
	}
	space, err := loadSpace(*spacePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-explore:", err)
		return 2
	}
	if *size {
		if _, err := fmt.Fprintln(stdout, space.Size()); err != nil {
			fmt.Fprintln(os.Stderr, "eve-explore:", err)
			return 1
		}
		return 0
	}

	// ^C / SIGTERM cancels through the campaign context: in-flight cells
	// finish and land in the journal, pending cells are skipped, and the
	// process exits with the checkpoint intact for a rerun.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Telemetry observes through the chain and the journal hook and, by
	// contract, cannot perturb a simulated byte — the report and journal
	// stay byte-identical however much of the chain is enabled.
	cfg := campaign.RunConfig{
		Space:       space,
		Journal:     *journal,
		Workers:     *parallel,
		CellTimeout: *cellTimeout,
		Interval:    *interval,
		Context:     ctx,
		Observer:    obs,
		OnJournal:   tel.JournalDepth,
	}
	fmt.Fprintf(os.Stderr, "exploring %d cells on %d workers...\n", space.Size(), *parallel)

	rep, err := campaign.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-explore:", err)
		if !errors.As(err, new(*campaign.InterruptedError)) {
			return 1
		}
		if *journal == "" {
			fmt.Fprintln(os.Stderr, "eve-explore: no -journal was given, so the partial work is lost")
		}
		return 130
	}

	if err := emitReport(stdout, *out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "eve-explore:", err)
		return 1
	}
	s := rep.Summary
	fmt.Fprintf(os.Stderr, "campaign: %d cells: %d ok, %d failed, %d timeout\n",
		s.Total, s.OK, s.Failed, s.Timeout)
	return 0
}
