// Command eve-explore walks a declarative design-space campaign — cache
// geometry, MSHR/bank counts, DRAM latency, EVE-n segmentation, input
// scale/seed — with crash-safe checkpointing: every finished cell is
// appended to a CRC-guarded journal, SIGINT/SIGTERM checkpoint and exit
// cleanly, and -resume skips settled cells and reproduces the
// uninterrupted run's report byte-identically.
//
//	eve-explore -space=space.json -journal=c.log -o=report.json
//	eve-explore -space=space.json -size                  # count cells, run nothing
//	eve-explore -space=- -journal=c.log -resume          # continue a killed campaign
//	eve-explore -space=space.json -cell-timeout=30s -retries=2 -backoff=100ms
//
// The space file is a JSON campaign.Space; axes left empty pin their
// Table III values (seeds default to the canonical 0, n to the full
// factor sweep). A cell that keeps failing is recorded failed-with-reason
// and the campaign completes around it.
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

// loadSpace reads the campaign space from path ("-" = stdin).
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
	return s, nil
}

// emitReport writes the report as indented JSON, to stdout or a file. The
// rendering is deterministic, which is what the crash-smoke byte-diff
// checks.
func emitReport(path string, rep *campaign.Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run())
}

// run is the command body. The named return keeps every exit on the return
// path, so deferred telemetry flushes (profiler, status server, run log)
// always happen — including on the SIGINT checkpoint exit.
func run() (code int) {
	spacePath := flag.String("space", "", "campaign space JSON file (\"-\" for stdin); required")
	size := flag.Bool("size", false, "print the space's cell count and exit without simulating")
	journal := flag.String("journal", "", "checkpoint journal path (empty: no crash safety)")
	resume := flag.Bool("resume", false, "reopen the journal and skip already-settled cells")
	out := flag.String("o", "", "write the JSON report to this file instead of stdout")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines (results are identical at any count)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell wall-clock budget (0: no watchdog)")
	retries := flag.Int("retries", 1, "re-runs per cell after a recoverable failure")
	backoff := flag.Duration("backoff", 0, "base retry delay, doubled per attempt (deterministic, no jitter)")
	fsyncEvery := flag.Int("fsync-every", 1, "fsync the journal every N records (1: every record)")
	interval := flag.Int64("interval", 0, "sample each cell's stats registry every N simulated cycles; feeds the /metrics eve_probe_window_* section, never the report or journal (0: off)")
	tel := telemetry.NewFlags(flag.CommandLine)
	flag.Parse()

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
		fmt.Println(space.Size())
		return 0
	}

	// ^C / SIGTERM cancels through the campaign context: in-flight cells
	// finish and land in the journal, pending cells are skipped, and the
	// process exits with the checkpoint intact for a -resume run.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := campaign.RunConfig{
		Space:       space,
		Journal:     *journal,
		Resume:      *resume,
		Workers:     *parallel,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
		Backoff:     *backoff,
		FsyncEvery:  *fsyncEvery,
		Interval:    *interval,
		Context:     ctx,
	}

	// Telemetry observes through the chain and the journal hook and, by
	// contract, cannot perturb a simulated byte — the report and journal
	// stay byte-identical however much of the chain is enabled.
	cfg.Observer = obs
	cfg.OnJournal = tel.JournalDepth
	fmt.Fprintf(os.Stderr, "exploring %d cells on %d workers...\n", space.Size(), *parallel)

	rep, err := campaign.Run(cfg)
	var interrupted *campaign.InterruptedError
	switch {
	case errors.As(err, &interrupted):
		fmt.Fprintln(os.Stderr, "eve-explore:", err)
		if *journal == "" {
			fmt.Fprintln(os.Stderr, "eve-explore: no -journal was given, so the partial work is lost")
		}
		return 130
	case err != nil:
		fmt.Fprintln(os.Stderr, "eve-explore:", err)
		return 1
	}

	if err := emitReport(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "eve-explore:", err)
		return 1
	}
	s := rep.Summary
	fmt.Fprintf(os.Stderr, "campaign: %d cells: %d ok, %d failed, %d timeout\n",
		s.Total, s.OK, s.Failed, s.Timeout)
	return 0
}
