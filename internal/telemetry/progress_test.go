package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestProgressCellLine pins the per-cell line format: aggregate progress,
// kernel, system, status, wall seconds.
func TestProgressCellLine(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	p.CellDone(0, 1, 2, sim.Result{Kernel: "vvadd", System: "IO", Cycles: 42}, 1500*time.Millisecond)
	line := buf.String()
	for _, want := range []string{"[1/2]", "vvadd", "IO", "42 cycles", "(1.50s)"} {
		if !strings.Contains(line, want) {
			t.Errorf("cell line %q missing %q", line, want)
		}
	}
	if n := strings.Count(line, "\n"); n != 1 {
		t.Errorf("CellDone wrote %d lines, want 1: %q", n, line)
	}
}

// TestProgressFailedCell: a failed cell's line carries the error text
// instead of a cycle count.
func TestProgressFailedCell(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	r := sim.Result{Kernel: "k", System: "s", Err: errors.New("checker mismatch")}
	p.CellDone(3, 4, 9, r, time.Millisecond)
	if !strings.Contains(buf.String(), "FAILED: checker mismatch") {
		t.Errorf("failed cell line = %q, want FAILED status", buf.String())
	}
	if strings.Contains(buf.String(), "cycles") {
		t.Errorf("failed cell line still reports cycles: %q", buf.String())
	}
}

// TestProgressSummaryOnCompletion: SweepDone after a full sweep emits the
// completed-form summary.
func TestProgressSummaryOnCompletion(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	p.CellDone(0, 1, 2, sim.Result{Kernel: "a", System: "s", Cycles: 1}, time.Millisecond)
	p.CellDone(1, 2, 2, sim.Result{Kernel: "b", System: "s", Cycles: 1}, time.Millisecond)
	p.SweepDone(2, 2)
	sum := lastLine(buf.String())
	if !strings.HasPrefix(sum, "sweep: 2 cells in ") {
		t.Errorf("completion summary = %q", sum)
	}
	if strings.Contains(sum, "stopped") {
		t.Errorf("completed sweep rendered the interrupted form: %q", sum)
	}
}

// TestProgressSummaryOnAbort is the regression test for the summary-on-abort
// fix: a sweep that stops early must still emit its final line, in the
// stopped-after form.
func TestProgressSummaryOnAbort(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	p.CellDone(0, 1, 5, sim.Result{Kernel: "a", System: "s", Cycles: 1}, time.Millisecond)
	p.SweepDone(1, 5)
	sum := lastLine(buf.String())
	if !strings.HasPrefix(sum, "sweep: stopped after 1/5 cells in ") {
		t.Errorf("abort summary = %q, want the stopped-after form", sum)
	}
}

// TestProgressSummarySurvivesAbortEndToEnd drives the fix through ForEach:
// an AbortOnError sweep that fails on its first cell must still end with a
// summary line on the progress stream.
func TestProgressSummarySurvivesAbortEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	cells := []sweep.Cell{
		{Kernel: "bad", System: "s", Run: func() sim.Result {
			return sim.Result{Kernel: "bad", System: "s", Err: errors.New("boom")}
		}},
		{Kernel: "never", System: "s", Run: func() sim.Result {
			return sim.Result{Kernel: "never", System: "s", Cycles: 1}
		}},
	}
	opts := sweep.Options{Workers: 1, AbortOnError: true, Observer: newObserver(&buf, nil, false)}
	if _, err := sweep.ForEach(cells, opts); err == nil {
		t.Fatal("aborting sweep returned nil error")
	}
	sum := lastLine(buf.String())
	if !strings.HasPrefix(sum, "sweep: stopped after 1/2 cells") {
		t.Errorf("end-to-end abort summary = %q, want stopped-after form as the last line", sum)
	}
}

// TestProgressZeroElapsedOverlap: a summary for an instantaneous sweep must
// not render NaN/Inf overlap.
func TestProgressZeroElapsedOverlap(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	p.now = fixedClock(p.start)
	p.SweepDone(0, 0)
	if s := buf.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("degenerate summary rendered a non-finite overlap: %q", s)
	}
}

// TestProgressCellLineETA: an in-flight sweep's cell lines extrapolate an
// ETA from observed throughput; the final cell's line omits it.
func TestProgressCellLineETA(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	p.open, p.sweepStart = true, time.Now().Add(-10*time.Second) // 1 cell per 10s observed
	p.CellDone(0, 1, 3, sim.Result{Kernel: "a", System: "s", Cycles: 1}, time.Millisecond)
	line := lastLine(buf.String())
	if !strings.Contains(line, " eta ") {
		t.Errorf("mid-sweep cell line %q lacks an ETA", line)
	}
	// 2 cells remain at ~10s/cell.
	if !strings.Contains(line, "eta 20s") {
		t.Errorf("cell line %q, want ~20s ETA from the observed rate", line)
	}
	buf.Reset()
	p.CellDone(1, 3, 3, sim.Result{Kernel: "c", System: "s", Cycles: 1}, time.Millisecond)
	if line := lastLine(buf.String()); strings.Contains(line, "eta") {
		t.Errorf("final cell line %q still renders an ETA", line)
	}
}

// TestProgressCellLineETASecondSweep: a later sweep's cell lines
// extrapolate from that sweep's own rate, not from the time since the
// observer was made, which counts the earlier sweeps and the gaps between.
func TestProgressCellLineETASecondSweep(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	clock := p.start
	p.now = func() time.Time { return clock }

	p.CellStart(0, "a", "s")
	clock = clock.Add(100 * time.Second)
	p.CellDone(0, 1, 1, sim.Result{Kernel: "a", System: "s", Cycles: 1}, 100*time.Second)
	p.SweepDone(1, 1)

	clock = clock.Add(50 * time.Second) // between the sweeps
	p.CellStart(0, "b", "s")
	clock = clock.Add(2 * time.Second) // 1 cell per 2s in this sweep
	p.CellDone(0, 1, 4, sim.Result{Kernel: "b", System: "s", Cycles: 1}, 2*time.Second)
	// 3 cells remain at 2s/cell; from the observer's start it would be 456s.
	if line := lastLine(buf.String()); !strings.HasSuffix(line, " eta 6s") {
		t.Errorf("second sweep's cell line %q, want a 6s ETA from its own rate", line)
	}
}

// TestProgressSummaryTimeoutCount: the end-of-sweep summary reports the
// timeout count when any cell timed out, and stays terse otherwise.
func TestProgressSummaryTimeoutCount(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	te := &sweep.TimeoutError{Kernel: "b", System: "s", Budget: time.Second}
	p.CellDone(0, 1, 2, sim.Result{Kernel: "a", System: "s", Cycles: 1}, time.Millisecond)
	p.CellDone(1, 2, 2, sim.Result{Kernel: "b", System: "s", Err: te}, time.Second)
	p.SweepDone(2, 2)
	sum := lastLine(buf.String())
	if !strings.Contains(sum, ", 1 timed out)") {
		t.Errorf("summary = %q, want the timeout count", sum)
	}

	buf.Reset()
	q := newObserver(&buf, nil, false)
	q.CellDone(0, 1, 1, sim.Result{Kernel: "a", System: "s", Cycles: 1}, time.Millisecond)
	q.SweepDone(1, 1)
	if sum := lastLine(buf.String()); strings.Contains(sum, "timed out") {
		t.Errorf("clean sweep summary %q mentions timeouts", sum)
	}
}

// TestCellLabelFromCellStart: a cell is named by its CellStart label, as a
// fault campaign's name the fault site, not by its result's bare system,
// in both its cell_done event and its progress line. Two sweeps reuse slot
// numbers, and cells finish out of slot order.
func TestCellLabelFromCellStart(t *testing.T) {
	var progress, log bytes.Buffer
	o := newObserver(&progress, &log, false)
	o.now = fixedClock(o.start)
	r := sim.Result{Kernel: "vvadd", System: "O3+EVE-32", Cycles: 7}
	sweeps := [][]string{
		{"O3+EVE-32 baseline"},
		{"O3+EVE-32+stuck-sa1@c5920", "O3+EVE-32+wldrop#b3"},
	}
	var want []string
	for _, labels := range sweeps {
		for i, l := range labels {
			o.CellStart(i, "vvadd", l)
		}
		for i := len(labels) - 1; i >= 0; i-- {
			done := len(labels) - i
			o.CellDone(i, done, len(labels), r, time.Millisecond)
			want = append(want, labels[i])
		}
		o.SweepDone(len(labels), len(labels))
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("run-log line %q: %v", line, err)
		}
		if e.Event == "cell_done" {
			got = append(got, e.System)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("cell_done systems %q, want the CellStart labels %q", got, want)
	}
	var lines []string
	for _, line := range strings.Split(progress.String(), "\n") {
		if strings.HasPrefix(line, "[") {
			lines = append(lines, line)
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("%d progress cell lines, want %d:\n%s", len(lines), len(want), progress.String())
	}
	for i, line := range lines {
		if !strings.Contains(line, " "+want[i]+" ") {
			t.Errorf("progress line %q does not name its CellStart label %q", line, want[i])
		}
	}
}

// TestSweepSummaryIsPerSweep: each sweep's summary line counts only that
// sweep — wall time from its first CellStart, and its own cells'
// simulation time and timeouts — not the observer's whole life.
func TestSweepSummaryIsPerSweep(t *testing.T) {
	var buf bytes.Buffer
	p := newObserver(&buf, nil, false)
	clock := p.start
	p.now = func() time.Time { return clock }
	te := &sweep.TimeoutError{Kernel: "b", System: "s", Budget: time.Second}

	clock = clock.Add(5 * time.Second) // set-up before the first sweep
	p.CellStart(0, "a", "s")
	p.CellStart(1, "b", "s")
	clock = clock.Add(2 * time.Second)
	p.CellDone(0, 1, 2, sim.Result{Kernel: "a", System: "s", Cycles: 1}, 2*time.Second)
	p.CellDone(1, 2, 2, sim.Result{Kernel: "b", System: "s", Err: te}, time.Second)
	p.SweepDone(2, 2)
	if got, want := lastLine(buf.String()), "sweep: 2 cells in 2.00s wall (3.00s of simulation, 1.5x overlap, 1 timed out)"; got != want {
		t.Errorf("first summary %q, want %q", got, want)
	}

	clock = clock.Add(10 * time.Second) // between the sweeps
	p.CellStart(0, "c", "s")
	clock = clock.Add(time.Second)
	p.CellDone(0, 1, 1, sim.Result{Kernel: "c", System: "s", Cycles: 1}, time.Second)
	p.SweepDone(1, 1)
	if got, want := lastLine(buf.String()), "sweep: 1 cells in 1.00s wall (1.00s of simulation, 1.0x overlap)"; got != want {
		t.Errorf("second summary %q, want %q", got, want)
	}

	clock = clock.Add(time.Second)
	p.SweepDone(0, 0)
	if got, want := lastLine(buf.String()), "sweep: 0 cells in 0.00s wall (0.00s of simulation, 0.0x overlap)"; got != want {
		t.Errorf("empty sweep's summary %q, want %q", got, want)
	}
}

// lastLine returns the final non-empty line of s.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}
