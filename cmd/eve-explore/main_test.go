package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSpace writes a space file holding body and returns its path.
func writeSpace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "space.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSizeCountsCells: -size prints the space's cell count and runs
// nothing: 2 kernels × 2 factors × 2 L2 associativities.
func TestSizeCountsCells(t *testing.T) {
	space := writeSpace(t, `{"kernels": ["vvadd", "spmv"], "scales": [256], "n": [4, 32], "l2_ways": [8, 16]}`)
	var stdout bytes.Buffer
	var code int
	msg := captureStderr(t, func() { code = run([]string{"-space", space, "-size"}, &stdout) })
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, msg)
	}
	if got := stdout.String(); got != "8\n" {
		t.Errorf("stdout %q, want the cell count 8", got)
	}
}

// TestRejectsBadUsage: a missing, malformed or invalid space and the
// removed flags are usage errors. The command exits 2 before any cell runs, names
// the problem on stderr and writes no report.
func TestRejectsBadUsage(t *testing.T) {
	space := writeSpace(t, `{"kernels": ["vvadd"], "scales": [256]}`)
	invalid := writeSpace(t, `{"kernels": ["nope"], "scales": [256]}`)
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"missing space", nil, "-space is required"},
		{"truncated JSON", []string{"-space", writeSpace(t, `{"kernels": ["vvadd"`)}, "parse space"},
		{"unknown field", []string{"-space", writeSpace(t, `{"kernels": ["vvadd"], "scales": [256], "l3_kb": [512]}`)}, `unknown field "l3_kb"`},
		{"wrong type", []string{"-space", writeSpace(t, `{"kernels": "vvadd", "scales": [256]}`)}, "parse space"},
		{"missing file", []string{"-space", filepath.Join(t.TempDir(), "none.json")}, "read space"},
		{"retries flag", []string{"-space", space, "-size", "-retries=1"}, "flag provided but not defined: -retries"},
		{"backoff flag", []string{"-space", space, "-size", "-backoff=1s"}, "flag provided but not defined: -backoff"},
		{"resume flag", []string{"-space", space, "-size", "-resume"}, "flag provided but not defined: -resume"},
		{"fsync-every flag", []string{"-space", space, "-size", "-fsync-every=2"}, "flag provided but not defined: -fsync-every"},
		{"invalid space, -size", []string{"-space", invalid, "-size"}, `unknown kernel family "nope"`},
		{"invalid space, run", []string{"-space", invalid}, `unknown kernel family "nope"`},
	} {
		var stdout bytes.Buffer
		var code int
		msg := captureStderr(t, func() { code = run(c.args, &stdout) })
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", c.name, code, msg)
		}
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: stderr %q, want it to name %q", c.name, msg, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote to stdout: %q", c.name, stdout.String())
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
