package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// parseFlags registers the telemetry flags on a fresh FlagSet, parses args
// and points the Flags' stderr at a buffer.
func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := NewFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	tel.stderr = &bytes.Buffer{}
	return tel
}

// TestFlagsStartClose covers the shared CLI wiring: a bad -log-json path
// fails Start, a run-log write error surfaces from Close instead of being
// dropped, and with the flags off there is no observer (and under
// -progress alone, the one Observer).
func TestFlagsStartClose(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "run.jsonl")
	if _, err := parseFlags(t, "-log-json="+bad).Start(); err == nil {
		t.Error("Start accepted an unwritable -log-json path")
	}

	tel := parseFlags(t, "-log-json=-")
	tel.stderr = &failWriter{}
	obs, err := tel.Start()
	if err != nil {
		t.Fatal(err)
	}
	obs.SweepDone(1, 1)
	if err := tel.Close(); err == nil || !strings.Contains(err.Error(), "run log") {
		t.Errorf("Close = %v, want the run log's write error", err)
	}

	tel = parseFlags(t)
	if obs, err := tel.Start(); err != nil || obs != nil {
		t.Errorf("no flags: Start = %v, %v, want a nil observer", obs, err)
	}
	if err := tel.Close(); err != nil {
		t.Error(err)
	}
	tel = parseFlags(t, "-progress")
	obs, err = tel.Start()
	if _, ok := obs.(*Observer); err != nil || !ok {
		t.Errorf("-progress: Start = %T, %v, want the Observer", obs, err)
	}
	if err := tel.Close(); err != nil {
		t.Error(err)
	}
}

// outputs is what one Flags-built observer rendered: the progress stream,
// the run-log file, and the /status document plus the stable /metrics
// prefix, each empty when its flag was off.
type outputs struct{ progress, log, status string }

// observeFixedSequence builds an observer from Flags with the given
// outputs on, drives one fixed sequence — an ok, a failed and a timed-out
// cell, a journal checkpoint, a signal, the sweep's end — under one
// injected clock, and returns what each output rendered.
func observeFixedSequence(t *testing.T, progress, log, status bool) outputs {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "run.jsonl")
	var args []string
	if progress {
		args = append(args, "-progress")
	}
	if log {
		args = append(args, "-log-json="+logPath)
	}
	if status {
		args = append(args, "-status=127.0.0.1:0")
	}
	tel := parseFlags(t, args...)
	obs, err := tel.Start()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.(*Observer)
	epoch := time.Unix(1700000000, 0).UTC()
	o.start = epoch
	o.now = fixedClock(epoch.Add(10 * time.Second))

	stats := probe.Stats{{Name: "core.insts", Kind: probe.KindCounter, Int: 99}}
	timeout := &sweep.TimeoutError{Kernel: "sw", System: "O3", Budget: time.Second}
	o.CellStart(0, "vvadd", "O3+EVE-8")
	o.CellDone(0, 1, 3, sim.Result{Kernel: "vvadd", System: "O3+EVE-8", Cycles: 4242, Stats: stats}, 3*time.Millisecond)
	o.CellStart(1, "mmult", "IO")
	o.CellDone(1, 2, 3, sim.Result{Kernel: "mmult", System: "IO", Err: errors.New("checker mismatch")}, 40*time.Millisecond)
	o.CellStart(2, "sw", "O3")
	o.CellDone(2, 3, 3, sim.Result{Kernel: "sw", System: "O3", Err: timeout}, 1500*time.Millisecond)
	o.JournalDepth(3)
	o.signal("interrupt")
	o.SweepDone(3, 3)

	var out outputs
	if status {
		_, _, body := get(t, tel.srv, "/status")
		_, _, metrics := get(t, tel.srv, "/metrics")
		stable, _, ok := strings.Cut(metrics, "# HELP eve_host_")
		if !ok {
			t.Fatalf("/metrics lacks the eve_host_ section:\n%s", metrics)
		}
		out.status = body + stable
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	out.progress = tel.stderr.(*bytes.Buffer).String()
	if log {
		body, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		out.log = string(body)
	}
	return out
}

// TestOutputsIndependent: every subset of {progress, log, status} renders
// each of its outputs byte-identically to that output's single-output run,
// so no output depends on which others are on.
func TestOutputsIndependent(t *testing.T) {
	alone := outputs{
		progress: observeFixedSequence(t, true, false, false).progress,
		log:      observeFixedSequence(t, false, true, false).log,
		status:   observeFixedSequence(t, false, false, true).status,
	}
	if alone.progress == "" || alone.log == "" || alone.status == "" {
		t.Fatalf("a single-output run rendered nothing: %+v", alone)
	}
	var events []Event
	for _, line := range strings.Split(strings.TrimRight(alone.log, "\n"), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("run-log line %q: %v", line, err)
		}
		events = append(events, e)
	}
	if len(events) != 9 {
		t.Errorf("%d run-log events, want 9 (3 starts, 3 dones, checkpoint, signal, sweep_done)", len(events))
	}
	for mask := 1; mask < 8; mask++ {
		progress, log, status := mask&1 != 0, mask&2 != 0, mask&4 != 0
		got := observeFixedSequence(t, progress, log, status)
		if progress && got.progress != alone.progress {
			t.Errorf("mask %03b: progress diverges from -progress alone:\n got:\n%s\n want:\n%s", mask, got.progress, alone.progress)
		}
		if !progress && got.progress != "" {
			t.Errorf("mask %03b: progress off, yet stderr got:\n%s", mask, got.progress)
		}
		if log && got.log != alone.log {
			t.Errorf("mask %03b: run log diverges from -log-json alone:\n got:\n%s\n want:\n%s", mask, got.log, alone.log)
		}
		if status && got.status != alone.status {
			t.Errorf("mask %03b: status diverges from -status alone:\n got:\n%s\n want:\n%s", mask, got.status, alone.status)
		}
	}
}
