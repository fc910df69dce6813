package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/sim"
)

// crashSpace is the 48-cell space the crash-injection harness walks: big
// enough that kill points land mid-run, small enough for CI.
func crashSpace() Space {
	return Space{
		Kernels:     []string{"vvadd", "redux"},
		Scales:      []int{512, 2048},
		N:           []int{1, 4, 32},
		L2Ways:      []int{4, 8},
		DRAMLatency: []int64{50, 120},
	}
}

// syncObserver makes every cell wait in CellDone until the journal holds
// its record durably, so at most one record per worker is ever unsynced.
// The crash helper uses it to bound how far the journal can run past a
// kill depth: exactly the depth at one worker, at most workers−1 beyond it
// otherwise.
type syncObserver struct{ j *Journal }

func (o *syncObserver) CellStart(int, string, string) {}
func (o *syncObserver) CellDone(int, int, int, sim.Result, time.Duration) {
	// A write error is sticky and fails the campaign from Run on its own.
	_ = o.j.Sync()
}
func (o *syncObserver) SweepDone(int, int) {}

// TestHelperCampaign is not a test: it is the subprocess body the
// crash-injection harness drives. It runs the crash space against the
// journal named in the environment, always in resume mode (the first
// launch finds no journal and starts fresh), exactly as a user rerunning
// eve-explore would, and SIGKILLs itself from the journal's OnJournal hook
// once the durable depth (resumed records included) reaches
// EVE_CAMPAIGN_KILL_AT. The kill point is thus a journal depth, not a
// moment in time: it cannot miss, however fast the cells run.
func TestHelperCampaign(t *testing.T) {
	if os.Getenv("EVE_CAMPAIGN_HELPER") != "1" {
		t.Skip("crash-injection helper body; only runs as a subprocess")
	}
	workers, err := strconv.Atoi(os.Getenv("EVE_CAMPAIGN_WORKERS"))
	if err != nil {
		t.Fatal(err)
	}
	killAt, err := strconv.Atoi(os.Getenv("EVE_CAMPAIGN_KILL_AT"))
	if err != nil {
		t.Fatal(err)
	}
	obs := &syncObserver{}
	onJournalOpened(t, func(j *Journal) { obs.j = j })
	_, err = Run(RunConfig{
		Space:    crashSpace(),
		Journal:  os.Getenv("EVE_CAMPAIGN_JOURNAL"),
		Resume:   true,
		Workers:  workers,
		Observer: obs,
		OnJournal: func(depth int) {
			if depth != killAt {
				return
			}
			// SIGKILL: no deferred close, no flush, no Go runtime
			// cooperation. The writer goroutine is the one dying here, so
			// nothing past this depth's batch reaches the file.
			if err := syscall.Kill(os.Getpid(), syscall.SIGKILL); err != nil {
				panic(err)
			}
			select {}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// killAt runs the helper campaign over jpath until the journal's durable
// depth reaches depth, and fails unless the helper died of that SIGKILL.
func killAt(t *testing.T, jpath string, workers, depth int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperCampaign$")
	cmd.Env = append(os.Environ(),
		"EVE_CAMPAIGN_HELPER=1",
		"EVE_CAMPAIGN_JOURNAL="+jpath,
		"EVE_CAMPAIGN_WORKERS="+strconv.Itoa(workers),
		"EVE_CAMPAIGN_KILL_AT="+strconv.Itoa(depth),
	)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("kill at depth %d: campaign finished before the kill (err %v)\n%s", depth, err, out.Bytes())
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("kill at depth %d: helper exited with %v, not SIGKILL\n%s", depth, err, out.Bytes())
	}
}

// journalRecords reads the records a resume would find in jpath.
func journalRecords(t *testing.T, jpath string) int {
	t.Helper()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := parseRecords(data)
	return len(recs)
}

// tearLastRecord cuts jpath in the middle of its last line, the way a kill
// landing inside the writer's write would leave it.
func tearLastRecord(t *testing.T, jpath string) {
	t.Helper()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-1]
	start := bytes.LastIndexByte(body, '\n') + 1
	if err := os.Truncate(jpath, int64(start+(len(body)-start)/2)); err != nil {
		t.Fatal(err)
	}
}

// crashCase is one kill sequence: the helper is SIGKILLed at each depth in
// turn, resuming from the previous kill's journal, and the journal's last
// record is optionally torn before the final resume.
type crashCase struct {
	kills []int
	tear  bool
}

func (c crashCase) name() string {
	s := make([]string, len(c.kills))
	for i, k := range c.kills {
		s[i] = strconv.Itoa(k)
	}
	name := "kill=" + strings.Join(s, ",")
	if c.tear {
		name += "/torn"
	}
	return name
}

// crashCases lists the kill sequences at a worker count. One worker runs
// every depth from 1 to total−1, where the journal must hold exactly the
// kill depth. Four workers can have up to three records past the depth in
// the kill's batch, so their depths stop at total−4, and a second kill in
// a sequence sits more than four records past the first so it is still
// ahead of the resumed depth.
func crashCases(workers, total int) []crashCase {
	var cases []crashCase
	if workers == 1 {
		for k := 1; k < total; k++ {
			cases = append(cases, crashCase{kills: []int{k}})
		}
		return append(cases,
			crashCase{kills: []int{1}, tear: true},
			crashCase{kills: []int{24}, tear: true},
			crashCase{kills: []int{10, 30}, tear: true})
	}
	for _, k := range []int{1, 2, 9, 17, 30, total - workers} {
		cases = append(cases, crashCase{kills: []int{k}})
	}
	return append(cases,
		crashCase{kills: []int{3, 20}},
		crashCase{kills: []int{12, 40}},
		crashCase{kills: []int{5}, tear: true},
		crashCase{kills: []int{8, 35}, tear: true})
}

// TestCrashInjectionResumeByteIdentical is the headline robustness proof:
// a campaign subprocess is SIGKILLed at seeded journal depths, resumed
// after each kill, and the final report must byte-match the same campaign
// run uninterrupted in-process — at worker counts 1 and 4. SIGKILL gives
// no chance to clean up; the torn variants also cut the last record in
// half before resuming, as a kill inside a write would.
func TestCrashInjectionResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix in -short mode")
	}
	golden, err := Run(RunConfig{Space: crashSpace(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	total := crashSpace().Size()

	for _, workers := range []int{1, 4} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			for _, c := range crashCases(workers, total) {
				t.Run(c.name(), func(t *testing.T) {
					jpath := filepath.Join(t.TempDir(), "journal.log")
					for _, k := range c.kills {
						killAt(t, jpath, workers, k)
						got := journalRecords(t, jpath)
						// Neither nothing nor everything: otherwise the
						// resume below proves nothing.
						if got < k || got > k+workers-1 || got >= total {
							t.Fatalf("killed at depth %d with %d workers, the journal holds %d/%d records", k, workers, got, total)
						}
					}
					if c.tear {
						tearLastRecord(t, jpath)
					}
					rep, err := Run(RunConfig{Space: crashSpace(), Journal: jpath, Resume: true, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.MarshalIndent(rep, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, goldenJSON) {
						t.Errorf("killed-and-resumed report differs from the uninterrupted run\n%s", firstDiff(got, goldenJSON))
					}
				})
			}
		})
	}
}

// firstDiff renders the neighbourhood of the first byte where got and want
// differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-200, 0)
	return fmt.Sprintf("at byte %d\n got:  %.400s\n want: %.400s", i, got[lo:], want[lo:])
}
