package telemetry

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestFlagsStartClose covers the shared CLI wiring: a bad -log-json path
// fails Start, a run-log write error surfaces from Close instead of being
// dropped, and with the flags off the chain is empty (or just the progress
// printer under -progress).
func TestFlagsStartClose(t *testing.T) {
	parse := func(args ...string) *Flags {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		tel := NewFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		tel.stderr = &bytes.Buffer{}
		return tel
	}

	bad := filepath.Join(t.TempDir(), "missing", "run.jsonl")
	if _, err := parse("-log-json=" + bad).Start(); err == nil {
		t.Error("Start accepted an unwritable -log-json path")
	}

	tel := parse("-log-json=-")
	tel.stderr = &failWriter{}
	obs, err := tel.Start()
	if err != nil {
		t.Fatal(err)
	}
	obs.SweepDone(1, 1)
	if err := tel.Close(); err == nil || !strings.Contains(err.Error(), "run log") {
		t.Errorf("Close = %v, want the run log's write error", err)
	}

	tel = parse()
	if obs, err := tel.Start(); err != nil || obs != nil {
		t.Errorf("no flags: Start = %v, %v, want a nil observer", obs, err)
	}
	if err := tel.Close(); err != nil {
		t.Error(err)
	}
	tel = parse("-progress")
	obs, err = tel.Start()
	if _, ok := obs.(*sweep.Progress); err != nil || !ok {
		t.Errorf("-progress: Start = %T, %v, want the bare progress printer", obs, err)
	}
	if err := tel.Close(); err != nil {
		t.Error(err)
	}
}
