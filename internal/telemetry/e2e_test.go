package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// e2eSpace is a small but real campaign space: every cell runs the actual
// simulator.
func e2eSpace() campaign.Space {
	return campaign.Space{
		Kernels: []string{"vvadd"},
		Scales:  []int{256},
		N:       []int{1, 8},
		L2Ways:  []int{4, 8},
	}
}

// runCampaign executes the space and returns the marshaled report plus the
// raw journal bytes.
func runCampaign(t *testing.T, cfg campaign.RunConfig) ([]byte, []byte) {
	t.Helper()
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(cfg.Journal)
	if err != nil {
		t.Fatal(err)
	}
	return body, journal
}

// TestCampaignByteIdentityWithTelemetry is the determinism invariant end to
// end: a campaign observed by the full telemetry stack as the CLIs build it
// — progress lines, JSON run log, live status server, journal-depth hook —
// produces a byte-identical report and journal to an unobserved run.
// Workers=1 keeps the journal's completion order deterministic so it can
// be byte-compared too.
func TestCampaignByteIdentityWithTelemetry(t *testing.T) {
	dir := t.TempDir()

	bare := campaign.RunConfig{
		Space:   e2eSpace(),
		Journal: filepath.Join(dir, "bare.journal"),
		Workers: 1,
	}
	wantReport, wantJournal := runCampaign(t, bare)

	logPath := filepath.Join(dir, "run.jsonl")
	tel := parseFlags(t, "-progress", "-log-json="+logPath, "-status=127.0.0.1:0")
	obs, err := tel.Start()
	if err != nil {
		t.Fatal(err)
	}

	observed := campaign.RunConfig{
		Space:     e2eSpace(),
		Journal:   filepath.Join(dir, "observed.journal"),
		Workers:   1,
		Observer:  obs,
		OnJournal: tel.JournalDepth,
	}
	gotReport, gotJournal := runCampaign(t, observed)

	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("telemetry perturbed the campaign report:\n with:\n%s\n without:\n%s", gotReport, wantReport)
	}
	if !bytes.Equal(gotJournal, wantJournal) {
		t.Errorf("telemetry perturbed the journal verdict stream:\n with:\n%s\n without:\n%s", gotJournal, wantJournal)
	}

	// The telemetry side genuinely observed the run.
	_, _, body := get(t, tel.srv, "/status")
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Done != 4 || st.Total != 4 || !st.SweepDone {
		t.Errorf("status = %+v, want a drained 4-cell campaign", st)
	}
	if st.JournalDepth != 4 {
		t.Errorf("journal_depth = %d, want 4", st.JournalDepth)
	}
	_, _, metrics := get(t, tel.srv, "/metrics")
	if !strings.Contains(metrics, `eve_probe_stat{kernel="vvadd"`) {
		t.Errorf("/metrics lacks the probe snapshot of the last cell:\n%s", metrics)
	}
	progress := tel.stderr.(*bytes.Buffer).String()
	if !strings.Contains(progress, "[4/4] vvadd") || !strings.Contains(progress, "sweep: 4 cells in ") {
		t.Errorf("progress stream lacks the last cell line or the summary:\n%s", progress)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// 4 cell_start + 4 cell_done + 4 journal_checkpoint + 1 sweep_done.
	if lines := bytes.Count(log, []byte{'\n'}); lines != 13 {
		t.Errorf("%d run-log lines, want 13:\n%s", lines, log)
	}
}

// statusReads forwards every sweep event to the Observer and reads /status
// right after it, so a test sees the document at every point of a run.
type statusReads struct {
	o     *Observer
	reads []Status
}

func (s *statusReads) CellStart(i int, kernel, system string) {
	s.o.CellStart(i, kernel, system)
	s.reads = append(s.reads, s.o.Status())
}

func (s *statusReads) CellDone(i, done, total int, r sim.Result, wall time.Duration) {
	s.o.CellDone(i, done, total, r, wall)
	s.reads = append(s.reads, s.o.Status())
}

func (s *statusReads) SweepDone(done, total int) {
	s.o.SweepDone(done, total)
	s.reads = append(s.reads, s.o.Status())
}

// TestStatusSpansFaultSweeps runs a fault campaign — vvadd and redux, 3
// sites each: 2 baseline cells, then 6 injection cells, in two sweeps
// through one observer — and reads /status after every event. Total counts
// both sweeps, so done never passes it and the run ends at done = total =
// 8; sweep_done closes after the baselines and reopens with the
// injections. Progress lines keep each sweep's own [done/total].
func TestStatusSpansFaultSweeps(t *testing.T) {
	var progress bytes.Buffer
	reads := &statusReads{o: newObserver(&progress, nil, true)}
	_, err := faults.Run(faults.Config{
		System:         sim.Config{Kind: sim.SysO3EVE, N: 8},
		Kernels:        []*workloads.Kernel{workloads.NewVVAdd(256), workloads.NewRedux(256)},
		SitesPerKernel: 3,
		Seed:           5,
		Workers:        1,
		Observer:       reads,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 starts, 8 dones, 2 sweep ends.
	if len(reads.reads) != 18 {
		t.Fatalf("%d status reads, want 18", len(reads.reads))
	}
	for i, s := range reads.reads {
		if s.Done > s.Total {
			t.Errorf("read %d: done %d > total %d", i, s.Done, s.Total)
		}
	}
	// Read 4 follows the baselines' SweepDone, read 5 the first injection
	// CellStart.
	if s := reads.reads[4]; !s.SweepDone || s.Done != 2 || s.Total != 2 {
		t.Errorf("after the baselines: done %d total %d sweep_done %v, want 2/2/true", s.Done, s.Total, s.SweepDone)
	}
	if s := reads.reads[5]; s.SweepDone {
		t.Error("sweep_done still true once the injection sweep started")
	}
	if s := reads.reads[len(reads.reads)-1]; s.Done != 8 || s.Total != 8 || !s.SweepDone {
		t.Errorf("end of run: done %d total %d sweep_done %v, want 8/8/true", s.Done, s.Total, s.SweepDone)
	}
	for _, want := range []string{"[2/2] redux", "[1/6] vvadd", "[6/6] redux", "sweep: 2 cells in ", "sweep: 6 cells in "} {
		if !strings.Contains(progress.String(), want) {
			t.Errorf("progress stream lacks %q:\n%s", want, progress.String())
		}
	}
}
