package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestReportBytesDeterministic drives the CLI's campaign + emit path twice
// with the same seed at different worker counts and requires byte-identical
// JSON — the acceptance criterion the CI smoke job checks end to end.
func TestReportBytesDeterministic(t *testing.T) {
	run := func(workers int) []byte {
		rep, err := faults.Run(faults.Config{
			System:         sim.Config{Kind: sim.SysO3EVE, N: 32},
			Kernels:        []*workloads.Kernel{workloads.NewVVAdd(512)},
			SitesPerKernel: 8,
			Seed:           7,
			Workers:        workers,
			VerifyBaseline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := emitReport(&buf, "", rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(1), run(4)
	if !bytes.Equal(a, b) {
		t.Fatal("report JSON differs between worker counts")
	}
	if !strings.Contains(string(a), `"summary"`) {
		t.Error("report JSON is missing the summary block")
	}
}

// TestRejectsBadCampaign: a negative site count or a factor EVE does not
// have is a usage error. The command prints it on one line and exits 2
// before any cell runs, with no stack and no report.
func TestRejectsBadCampaign(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-sites", "-1"}, "negative sites per kernel"},
		{[]string{"-n", "3"}, "EVE factor 3 not in"},
		{[]string{"-n", "0"}, "EVE factor 0 not in"},
		{[]string{"-n", "64"}, "EVE factor 64 not in"},
	} {
		var stdout bytes.Buffer
		var code int
		msg := captureStderr(t, func() { code = run(c.args, &stdout) })
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, msg)
		}
		if !strings.HasPrefix(msg, "eve-faults: ") || !strings.Contains(msg, c.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line naming %q", c.args, msg, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote a report: %q", c.args, stdout.String())
		}
	}
}

// TestRejectsRemovedFlags: -retry (cells run once) and -verify-baseline
// (the baseline is always verified) are gone; passing either is a usage
// error that exits 2 before any cell runs.
func TestRejectsRemovedFlags(t *testing.T) {
	for _, flag := range []string{"-retry", "-verify-baseline=false"} {
		var stdout bytes.Buffer
		var code int
		msg := captureStderr(t, func() { code = run([]string{flag}, &stdout) })
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", flag, code, msg)
		}
		name, _, _ := strings.Cut(flag, "=")
		if !strings.Contains(msg, "flag provided but not defined: "+name) {
			t.Errorf("%s: stderr %q, want it to name the unknown %s flag", flag, msg, name)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote a report: %q", flag, stdout.String())
		}
	}
}

// captureStderr returns what f writes to os.Stderr.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // a failed read shows as a missing message
		done <- b
	}()
	f()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return string(<-done)
}
