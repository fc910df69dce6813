package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// smallSpace is a 4-cell space fast enough for unit tests.
func smallSpace() Space {
	return Space{
		Kernels: []string{"vvadd"},
		Scales:  []int{256},
		N:       []int{1, 8},
		L2Ways:  []int{4, 8},
	}
}

// countObserver counts CellDone calls (thread-safe).
type countObserver struct {
	mu    sync.Mutex
	cells int
}

func (o *countObserver) CellStart(int, string, string) {}
func (o *countObserver) CellDone(int, int, int, sim.Result, time.Duration) {
	o.mu.Lock()
	o.cells++
	o.mu.Unlock()
}
func (o *countObserver) SweepDone(int, int) {}

func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunCompletesAndResumes: a full run settles every cell; resuming over
// its journal re-simulates nothing and reproduces the report byte-for-byte.
func TestRunCompletesAndResumes(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.log")
	rep, err := Run(RunConfig{Space: smallSpace(), Journal: jpath, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Total != 4 || rep.Summary.OK != 4 {
		t.Fatalf("summary = %+v, want 4 ok cells", rep.Summary)
	}
	if len(rep.Pareto) != 1 || len(rep.Pareto[0].Points) == 0 {
		t.Fatalf("no Pareto frontier: %+v", rep.Pareto)
	}
	golden := reportJSON(t, rep)

	obs := &countObserver{}
	rep2, err := Run(RunConfig{Space: smallSpace(), Journal: jpath, Workers: 2, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if obs.cells != 0 {
		t.Errorf("resume over a complete journal re-simulated %d cells", obs.cells)
	}
	if got := reportJSON(t, rep2); !reflect.DeepEqual(got, golden) {
		t.Errorf("resumed report is not byte-identical:\n%s\n--- vs ---\n%s", got, golden)
	}
}

// TestRunResumePartialJournal: a journal holding a strict prefix of the
// cells resumes the remainder only, and the stitched report byte-matches an
// uninterrupted run.
func TestRunResumePartialJournal(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	rep, err := Run(RunConfig{Space: smallSpace(), Journal: full, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden := reportJSON(t, rep)

	// Hand-build a checkpoint holding only the first two cells.
	partial := filepath.Join(dir, "partial.log")
	j, err := Create(partial, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Cells[:2] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	obs := &countObserver{}
	rep2, err := Run(RunConfig{Space: smallSpace(), Journal: partial, Workers: 1, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if obs.cells != 2 {
		t.Errorf("resume ran %d cells, want exactly the 2 missing ones", obs.cells)
	}
	if got := reportJSON(t, rep2); !reflect.DeepEqual(got, golden) {
		t.Errorf("stitched report differs from the uninterrupted run:\n%s\n--- vs ---\n%s", got, golden)
	}
}

// TestRunGracefulDegradation: cells that fail deterministically (here the
// micro-program watchdog via an absurdly small budget) run once each and
// are recorded failed-with-reason, and the campaign still completes with a
// report instead of aborting.
func TestRunGracefulDegradation(t *testing.T) {
	s := smallSpace()
	s.MaxUProgCycles = 1 // every EVE cell trips the watchdog
	var runs atomic.Int32
	onStreamRan(t, func(int, string) { runs.Add(1) })
	rep, err := Run(RunConfig{Space: s, Workers: 2})
	if err != nil {
		t.Fatalf("a campaign of failing cells must still complete: %v", err)
	}
	if n := runs.Load(); n != 4 {
		t.Errorf("%d cell runs, want 4: a failed cell runs once", n)
	}
	if rep.Summary.Failed != rep.Summary.Total || rep.Summary.Total != 4 {
		t.Fatalf("summary = %+v, want all 4 failed", rep.Summary)
	}
	for _, c := range rep.Cells {
		if c.Status != StatusFailed || c.Reason == "" {
			t.Errorf("cell %s: status %s reason %q, want failed-with-reason", c.Cell, c.Status, c.Reason)
		}
	}
	if len(rep.Pareto) != 0 {
		t.Errorf("failed cells produced a Pareto frontier: %+v", rep.Pareto)
	}
}

// TestRunCancelCheckpointsAndResumes: cancelling before the sweep starts
// yields InterruptedError with an intact (empty-but-valid) checkpoint; a
// later resume completes the campaign.
func TestRunCancelCheckpointsAndResumes(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.log")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled from the start: every cell is skipped
	_, err := Run(RunConfig{Space: smallSpace(), Journal: jpath, Workers: 2, Context: ctx})
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("cancelled campaign returned %v, want *InterruptedError", err)
	}
	if ie.Completed != 0 || ie.Total != 4 {
		t.Fatalf("interrupt bookkeeping: %+v", ie)
	}

	rep, err := Run(RunConfig{Space: smallSpace(), Journal: jpath, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.OK != 4 {
		t.Fatalf("resume after cancellation: %+v", rep.Summary)
	}
}

// TestRunRejectsForeignJournal: resuming a journal from a different space
// must refuse rather than stitch incompatible results.
func TestRunRejectsForeignJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j.log")
	if _, err := Run(RunConfig{Space: smallSpace(), Journal: jpath, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	other := smallSpace()
	other.Scales = []int{512} // different space, same journal
	_, err := Run(RunConfig{Space: other, Journal: jpath, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), jpath) {
		t.Fatalf("foreign journal: %v, want an error naming %s", err, jpath)
	}
}

// TestRunTimeoutRecordedAndRetriedOnResume: a cell over its wall budget is
// journaled as timeout (with the budget in the reason), and a resume run
// schedules it again rather than treating it as settled.
func TestRunTimeoutRecordedAndRetriedOnResume(t *testing.T) {
	// Drive the journal/resume logic directly: a synthetic timeout record
	// for one cell of the space.
	s := smallSpace().withDefaults()
	all := s.Enumerate()
	jpath := filepath.Join(t.TempDir(), "j.log")
	j, err := Create(jpath, 1)
	if err != nil {
		t.Fatal(err)
	}
	terr := &sweep.TimeoutError{Kernel: "vvadd@256", System: all[0].Label(), Budget: time.Millisecond}
	if err := j.Append(makeRecord(all[0], sim.Result{Err: terr})); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	obs := &countObserver{}
	rep, err := Run(RunConfig{Space: smallSpace(), Journal: jpath, Workers: 1, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if obs.cells != 4 {
		t.Errorf("resume ran %d cells, want all 4 (the timeout cell must re-run)", obs.cells)
	}
	if rep.Summary.OK != 4 || rep.Summary.Timeout != 0 {
		t.Errorf("re-run timeout cell not settled: %+v", rep.Summary)
	}
}

// TestMakeRecordDispositions: the result→record mapping that defines what
// resume considers final.
func TestMakeRecordDispositions(t *testing.T) {
	p := smallSpace().withDefaults().Enumerate()[0]
	okRec := makeRecord(p, sim.Result{System: "O3+EVE-1", Cycles: 123, Stats: probe.Stats{
		{Name: "eve.energy.read_eq", Kind: probe.KindFloat, Float: 4.5},
		{Name: "eve.spawn.cost", Kind: probe.KindCounter, Int: 7},
	}})
	if okRec.Status != StatusOK || okRec.Cycles != 123 || okRec.AreaFactor <= 0 ||
		okRec.EnergyReadEq != 4.5 || okRec.SpawnCost != 7 {
		t.Errorf("ok record: %+v", okRec)
	}
	tRec := makeRecord(p, sim.Result{Err: &sweep.TimeoutError{Kernel: "k", System: "s", Budget: time.Second}})
	if tRec.Status != StatusTimeout || tRec.Reason == "" {
		t.Errorf("timeout record: %+v", tRec)
	}
	fRec := makeRecord(p, sim.Result{Err: errors.New("checker mismatch\nelement 9")})
	if fRec.Status != StatusFailed || fRec.Reason != "checker mismatch" {
		t.Errorf("failed record should keep the first line only: %+v", fRec)
	}
}

// closingObserver closes the campaign journal's file when the first cell
// finishes.
type closingObserver struct {
	j    *Journal
	once sync.Once
	err  error
}

func (o *closingObserver) CellStart(int, string, string) {}
func (o *closingObserver) CellDone(int, int, int, sim.Result, time.Duration) {
	o.once.Do(func() { o.err = o.j.closeFile() })
}
func (o *closingObserver) SweepDone(int, int) {}

// TestRunFailsOnJournalWriteError drives the journal-failure path: the
// journal's file is closed under a running campaign, so a later write or
// fsync fails. Run must return that error, wrapped, and no report:
// continuing without a checkpoint would void the crash-safety contract.
func TestRunFailsOnJournalWriteError(t *testing.T) {
	obs := &closingObserver{}
	onJournalOpened(t, func(j *Journal) { obs.j = j })
	rep, err := Run(RunConfig{
		Space:    smallSpace(),
		Journal:  filepath.Join(t.TempDir(), "j.log"),
		Workers:  1,
		Observer: obs,
	})
	if obs.err != nil {
		t.Fatal(obs.err)
	}
	if rep != nil || err == nil {
		t.Fatalf("Run returned report %v and error %v, want only an error", rep, err)
	}
	msg := err.Error()
	if !errors.Is(err, os.ErrClosed) ||
		!(strings.HasPrefix(msg, "campaign: append journal record: ") || strings.HasPrefix(msg, "campaign: fsync journal: ")) {
		t.Fatalf("Run returned %q, want the wrapped append or fsync error", msg)
	}
}

// TestJournalAckIsDurable: OnJournal reports only records that are already
// in the file, one depth per record, rising strictly to the record count,
// whatever the fsync batch.
func TestJournalAckIsDurable(t *testing.T) {
	for _, every := range []int{1, 3} {
		jpath := filepath.Join(t.TempDir(), "j.log")
		var depths []int
		rep, err := Run(RunConfig{
			Space:      smallSpace(),
			Journal:    jpath,
			Workers:    2,
			FsyncEvery: every,
			OnJournal: func(d int) {
				data, err := os.ReadFile(jpath)
				if err != nil {
					t.Error(err)
					return
				}
				if recs, _ := parseRecords(data); len(recs) < d {
					t.Errorf("fsync every %d: OnJournal(%d) with %d records in the file", every, d, len(recs))
				}
				depths = append(depths, d)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, rep.Summary.Total)
		for i := range want {
			want[i] = i + 1
		}
		if !reflect.DeepEqual(depths, want) {
			t.Errorf("fsync every %d: OnJournal depths %v, want %v", every, depths, want)
		}
	}
}
