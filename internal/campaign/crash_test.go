package campaign_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// syncObserver makes every cell wait in CellDone until the journal holds
// its record durably, so at most one record per worker is ever unsynced.
// The crash helper uses it to bound how far the journal can run past a
// kill depth: exactly the depth at one worker, at most workers−1 beyond it
// otherwise.
type syncObserver struct{ j *campaign.Journal }

func (o *syncObserver) CellStart(int, string, string) {}
func (o *syncObserver) CellDone(int, int, int, sim.Result, time.Duration) {
	// A write error is sticky and fails the campaign from Run on its own.
	_ = o.j.Sync()
}
func (o *syncObserver) SweepDone(int, int) {}

// crashCampaign is a campaign the harness kills and resumes: run executes
// it over a journal ("" for none) and returns its report's bytes.
type crashCampaign struct {
	total int
	run   func(journal string, workers int, obs sweep.Observer, onJournal func(int)) ([]byte, error)
	cases func(workers int) []crashCase
}

// crashCampaigns are the harness's campaigns by name: explore over the
// 48-cell crash space, and a fault campaign of vvadd and redux on EVE-8
// with 4 sites each, whose 10 cells span both of its sweeps.
var crashCampaigns = map[string]crashCampaign{
	"explore": {
		total: campaign.CrashSpace().Size(),
		run: func(journal string, workers int, obs sweep.Observer, onJournal func(int)) ([]byte, error) {
			rep, err := campaign.Run(campaign.RunConfig{
				Space: campaign.CrashSpace(), Journal: journal, Workers: workers, Observer: obs, OnJournal: onJournal,
			})
			if err != nil {
				return nil, err
			}
			return json.MarshalIndent(rep, "", "  ")
		},
		cases: func(workers int) []crashCase { return crashCases(workers, campaign.CrashSpace().Size()) },
	},
	"faults": {
		total: 10,
		run: func(journal string, workers int, obs sweep.Observer, onJournal func(int)) ([]byte, error) {
			ks, err := workloads.Select(workloads.Small(), "vvadd,redux")
			if err != nil {
				return nil, err
			}
			rep, err := faults.Run(faults.Config{
				System: sim.Config{Kind: sim.SysO3EVE, N: 8}, Kernels: ks, SitesPerKernel: 4, Seed: 1,
				Workers: workers, VerifyBaseline: true, Journal: journal, OnJournal: onJournal, Observer: obs,
			})
			if err != nil {
				return nil, err
			}
			return json.MarshalIndent(rep, "", "  ")
		},
		// The same rules as crashCases (below), on 10 cells: every depth at
		// one worker; at four, depths up to total−4 and a second kill more
		// than four records past the first.
		cases: func(workers int) []crashCase {
			if workers == 1 {
				var cases []crashCase
				for k := 1; k < 10; k++ {
					cases = append(cases, crashCase{kills: []int{k}})
				}
				return append(cases, crashCase{kills: []int{2}, tear: true}, crashCase{kills: []int{1, 5}, tear: true})
			}
			return []crashCase{{kills: []int{1}}, {kills: []int{2}}, {kills: []int{6}}, {kills: []int{1, 6}, tear: true}}
		},
	},
}

// TestHelperCampaign is not a test: it is the subprocess body the
// crash-injection harness drives. It runs the campaign named in the
// environment against the journal named there, exactly as a user rerunning
// eve-explore or eve-faults over one -journal would (the first launch finds
// no journal and starts fresh), and SIGKILLs itself from the journal's
// OnJournal hook once the durable depth (resumed records included) reaches
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
	campaign.OnJournalOpened(t, func(j *campaign.Journal) { obs.j = j })
	_, err = crashCampaigns[os.Getenv("EVE_CAMPAIGN_KIND")].run(os.Getenv("EVE_CAMPAIGN_JOURNAL"), workers, obs, func(depth int) {
		if depth != killAt {
			return
		}
		// SIGKILL: no deferred close, no flush, no Go runtime cooperation.
		// The writer goroutine is the one dying here, so nothing past this
		// depth's batch reaches the file.
		if err := syscall.Kill(os.Getpid(), syscall.SIGKILL); err != nil {
			panic(err)
		}
		select {}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// killAt runs the helper's kind of campaign over jpath until the journal's
// durable depth reaches depth, and fails unless the helper died of that
// SIGKILL.
func killAt(t *testing.T, kind, jpath string, workers, depth int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperCampaign$")
	cmd.Env = append(os.Environ(),
		"EVE_CAMPAIGN_HELPER=1",
		"EVE_CAMPAIGN_KIND="+kind,
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
	return campaign.JournalRecords(data)
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

// crashCases lists explore's kill sequences at a worker count. One worker
// runs every depth from 1 to total−1, where the journal must hold exactly
// the kill depth. Four workers can have up to three records past the depth
// in the kill's batch, so their depths stop at total−4, and a second kill
// in a sequence sits more than four records past the first so it is still
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
// run uninterrupted in-process — at worker counts 1 and 4, for explore and
// (under faults/) for a fault campaign. SIGKILL gives no chance to clean
// up; the torn variants also cut the last record in half before resuming,
// as a kill inside a write would.
func TestCrashInjectionResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix in -short mode")
	}
	crashMatrix(t, "explore")
	t.Run("faults", func(t *testing.T) { crashMatrix(t, "faults") })
}

// crashMatrix runs the named campaign's kill sequences at 1 and 4 workers.
func crashMatrix(t *testing.T, kind string) {
	c := crashCampaigns[kind]
	golden, err := c.run("", 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			for _, cc := range c.cases(workers) {
				t.Run(cc.name(), func(t *testing.T) {
					jpath := filepath.Join(t.TempDir(), "journal.log")
					for _, k := range cc.kills {
						killAt(t, kind, jpath, workers, k)
						got := journalRecords(t, jpath)
						// Neither nothing nor everything: otherwise the
						// resume below proves nothing.
						if got < k || got > k+workers-1 || got >= c.total {
							t.Fatalf("killed at depth %d with %d workers, the journal holds %d/%d records", k, workers, got, c.total)
						}
					}
					if cc.tear {
						tearLastRecord(t, jpath)
					}
					got, err := c.run(jpath, workers, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, golden) {
						t.Errorf("killed-and-resumed report differs from the uninterrupted run\n%s", campaign.FirstDiff(got, golden))
					}
				})
			}
		})
	}
}
