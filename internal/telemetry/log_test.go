package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

func TestLoggerEventLines(t *testing.T) {
	var buf bytes.Buffer
	l := newObserver(nil, &buf, false)
	l.now = fixedClock(time.Unix(1700000000, 0).UTC())

	l.CellStart(3, "vvadd", "O3+EVE-8")
	l.CellDone(3, 1, 4, sim.Result{Kernel: "vvadd", System: "O3+EVE-8", Cycles: 4242}, 3*time.Millisecond)
	te := &sweep.TimeoutError{Kernel: "sw", System: "O3", Budget: time.Second}
	l.CellDone(5, 2, 4, sim.Result{Kernel: "sw", System: "O3", Err: te}, 1100*time.Millisecond)
	l.JournalDepth(2)
	l.signal("interrupt")
	l.SweepDone(2, 4)
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		`{"time":"2023-11-14T22:13:20Z","event":"cell_start","cell":3,"kernel":"vvadd","system":"O3+EVE-8"}`,
		`{"time":"2023-11-14T22:13:20Z","event":"cell_done","cell":3,"kernel":"vvadd","system":"O3+EVE-8","status":"ok","cycles":4242,"wall_ms":3,"done":1,"total":4}`,
		`{"time":"2023-11-14T22:13:20Z","event":"cell_done","cell":5,"kernel":"sw","system":"O3","status":"timeout","wall_ms":1100,"done":2,"total":4,"err":"sweep: sw on O3 exceeded the 1s per-cell wall-clock budget"}`,
		`{"time":"2023-11-14T22:13:20Z","event":"journal_checkpoint","depth":2}`,
		`{"time":"2023-11-14T22:13:20Z","event":"signal","signal":"interrupt"}`,
		`{"time":"2023-11-14T22:13:20Z","event":"sweep_done","done":2,"total":4}`,
	}
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d log lines, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
	// Every line must round-trip as standalone JSON.
	for i, line := range got {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Errorf("line %d is not valid JSON: %v", i, err)
		}
	}
}

// failWriter fails every write after the first n bytes worth of calls.
type failWriter struct{ writes, failAfter int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, fmt.Errorf("synthetic write failure")
	}
	return len(p), nil
}

func TestLoggerLatchesFirstWriteError(t *testing.T) {
	w := &failWriter{failAfter: 1}
	l := newObserver(nil, w, false)
	l.now = fixedClock(time.Unix(0, 0))
	l.SweepDone(1, 1) // succeeds
	if err := l.Err(); err != nil {
		t.Fatalf("unexpected early error: %v", err)
	}
	l.SweepDone(2, 2) // fails and latches
	l.SweepDone(3, 3) // suppressed
	if err := l.Err(); err == nil {
		t.Fatal("write failure was not latched")
	}
	if w.writes != 2 {
		t.Errorf("%d writes attempted, want 2 (latched after the failure)", w.writes)
	}
}
