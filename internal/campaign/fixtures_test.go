package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

// copyFixture stages a checked-in journal into a temp dir, since Open
// repairs (truncates) torn files in place and the fixtures must stay
// byte-exact in the repository.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// fixtureSpace is the space whose cells the journal fixtures record.
func fixtureSpace() Space {
	return Space{Kernels: []string{"vvadd"}, Scales: []int{256}, N: []int{1, 8}, L2Ways: []int{4, 8}}
}

// TestJournalFixtures pins the on-disk journal format: journals written by
// earlier builds must keep resuming under later ones, so these byte-exact
// files are the compatibility contract. journal-complete holds four
// records (one failed-with-reason); journal-torn-tail is the same file
// SIGKILLed mid-append; journal-corrupt-mid has a flipped byte inside its
// second record.
func TestJournalFixtures(t *testing.T) {
	cases := []struct {
		file    string
		records int
	}{
		{"journal-complete.log", 4},
		{"journal-torn-tail.log", 3},
		{"journal-corrupt-mid.log", 1},
	}
	var ids []string
	for _, p := range fixtureSpace().Enumerate() {
		ids = append(ids, p.ID())
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := copyFixture(t, tc.file)
			j, err := Open(path, 1, ids, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			recs := readRecords(t, path)
			if len(recs) != tc.records || len(j.prior) != tc.records {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.records)
			}
			for i, r := range recs {
				if r.Cell == "" || r.Params.Kernel != "vvadd" {
					t.Errorf("record %d malformed: %+v", i, r)
				}
				if r.Status == StatusFailed && r.Reason == "" {
					t.Errorf("record %d failed without a reason", i)
				}
			}
		})
	}
}

// TestJournalFixtureResume: the fixture records resolve against their
// generating space, and since ok and failed are both final dispositions, a
// resume over the complete fixture re-runs nothing and reports straight
// from the checkpoint.
func TestJournalFixtureResume(t *testing.T) {
	obs := &countObserver{}
	rep, err := Run(RunConfig{
		Space:    fixtureSpace(),
		Journal:  copyFixture(t, "journal-complete.log"),
		Workers:  1,
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.cells != 0 {
		t.Errorf("resume over the complete fixture re-ran %d cells", obs.cells)
	}
	if rep.Summary.OK != 3 || rep.Summary.Failed != 1 {
		t.Errorf("fixture summary = %+v, want 3 ok + 1 failed", rep.Summary)
	}
}
