package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// quickConfig is a three-system, two-kernel matrix small enough for unit
// tests but covering a scalar system, an OoO system and an EVE design point.
func quickConfig(workers int) benchConfig {
	suite := workloads.Small()
	vvadd, err := workloads.ByName(suite, "vvadd")
	if err != nil {
		panic(err)
	}
	mmult, err := workloads.ByName(suite, "mmult")
	if err != nil {
		panic(err)
	}
	return benchConfig{
		label:   "test",
		suite:   "small",
		kernels: []*workloads.Kernel{vvadd, mmult},
		systems: []sim.Config{
			{Kind: sim.SysIO},
			{Kind: sim.SysO3},
			{Kind: sim.SysO3EVE, N: 8},
		},
		workers: workers,
		repeats: 1,
	}
}

// TestSimulatedSectionByteIdenticalAcrossWorkers pins the trajectory's core
// guarantee: the canonical JSON of a host-free report is byte-identical at
// any worker count.
func TestSimulatedSectionByteIdenticalAcrossWorkers(t *testing.T) {
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		rep, err := buildReport(quickConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Host != nil {
			t.Fatal("host:false config produced a host section")
		}
		blob, err := canonicalJSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Error("sim-only reports differ between 1 and 4 workers")
	}
}

// TestRepeatedRunsVerifyDeterminism checks the repetition tripwire runs (and
// stays silent) on a healthy simulator, and that the host section carries
// one wall sample per repetition with the min of them.
func TestRepeatedRunsVerifyDeterminism(t *testing.T) {
	cfg := quickConfig(2)
	cfg.repeats = 2
	cfg.host = true
	rep, err := buildReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Host
	if h == nil || len(h.WallNS) != 2 {
		t.Fatalf("host section = %+v, want 2 wall samples", h)
	}
	if h.WallNSMin != min(h.WallNS[0], h.WallNS[1]) {
		t.Errorf("wall_ns_min = %d, want min of %v", h.WallNSMin, h.WallNS)
	}
	if h.WallNSMin <= 0 || h.AllocsMin == 0 {
		t.Errorf("implausible host measurements: %+v", h)
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	rep, err := buildReport(quickConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := compareReports(rep, rep, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("self-comparison found %d diffs: %v", len(diffs), diffs)
	}
}

// roundTrip deep-copies a report through its JSON form, mimicking a baseline
// loaded from disk.
func roundTrip(t *testing.T, rep *Report) *Report {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestCompareDetectsPerturbations perturbs one simulated metric at a time
// and checks each perturbation is a finding with the right metric path.
func TestCompareDetectsPerturbations(t *testing.T) {
	rep, err := buildReport(quickConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	perturb := []struct {
		name   string
		mutate func(*SimCell)
		metric string
	}{
		{"cycles", func(c *SimCell) { c.Cycles++ }, "cycles"},
		{"checksum", func(c *SimCell) { c.MemChecksum = "0xdeadbeefdeadbeef" }, "mem_checksum"},
		{"derived float", func(c *SimCell) { c.Derived.L2.MissRate += 1e-15 }, "derived.l2.miss_rate"},
		{"derived flag", func(c *SimCell) { c.Derived.Degenerate = !c.Derived.Degenerate }, "derived.degenerate"},
	}
	for _, p := range perturb {
		t.Run(p.name, func(t *testing.T) {
			cur := roundTrip(t, rep)
			p.mutate(&cur.Simulated.Cells[0])
			diffs, err := compareReports(rep, cur, -1)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) == 0 {
				t.Fatalf("perturbing %s produced no findings", p.name)
			}
			found := false
			for _, d := range diffs {
				if strings.Contains(d.Metric, p.metric) {
					found = true
				}
			}
			if !found {
				t.Errorf("no finding names %q: %v", p.metric, diffs)
			}
			var tbl strings.Builder
			if err := renderDiffs(&tbl, diffs); err != nil {
				t.Fatal(err)
			}
			for _, col := range []string{"cell", "metric", "baseline", "current", p.metric} {
				if !strings.Contains(tbl.String(), col) {
					t.Errorf("diff table lacks %q:\n%s", col, tbl.String())
				}
			}
		})
	}

	t.Run("missing cell", func(t *testing.T) {
		cur := roundTrip(t, rep)
		cur.Simulated.Cells = cur.Simulated.Cells[1:]
		diffs, err := compareReports(rep, cur, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || diffs[0].Cur != "missing" {
			t.Errorf("dropped cell diffs = %v, want one 'missing' finding", diffs)
		}
	})
}

// TestCompareHostBand checks the wall-time band: regressions beyond the band
// fail, regressions inside it and speedups pass, and a negative band
// disables the check entirely.
func TestCompareHostBand(t *testing.T) {
	mk := func(wall int64) *Report {
		return &Report{Schema: Schema, Suite: "small", Host: &Host{WallNSMin: wall}}
	}
	cases := []struct {
		name      string
		base, cur int64
		band      float64
		wantDiffs int
	}{
		{"inside band", 1000, 1200, 25, 0},
		{"beyond band", 1000, 1300, 25, 1},
		{"faster is never a finding", 1000, 100, 25, 0},
		{"negative band disables", 1000, 100000, -1, 0},
		{"zero band is exact", 1000, 1001, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			diffs, err := compareReports(mk(c.base), mk(c.cur), c.band)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) != c.wantDiffs {
				t.Errorf("diffs = %v, want %d finding(s)", diffs, c.wantDiffs)
			}
		})
	}
}

// TestCompareExitCodeEndToEnd drives realMain: a tampered baseline must fail
// with exit code 1 and a readable diff on stderr; the untampered baseline
// must pass with exit code 0.
func TestCompareExitCodeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	outPath := filepath.Join(dir, "out.json")
	args := []string{"-small", "-kernels=vvadd", "-systems=IO,O3", "-repeat=1",
		"-sim-only", "-label=test", "-o=" + basePath}
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline run exited %d:\n%s", code, stderr.String())
	}

	compareArgs := []string{"-small", "-kernels=vvadd", "-systems=IO,O3", "-repeat=1",
		"-sim-only", "-label=test", "-o=" + outPath, "-compare=" + basePath}
	stderr.Reset()
	if code := realMain(compareArgs, &stdout, &stderr); code != 0 {
		t.Fatalf("self-comparison exited %d:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "OK") {
		t.Errorf("clean comparison did not report OK:\n%s", stderr.String())
	}

	// Tamper one cycles value in the baseline file.
	blob, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(blob, &tree); err != nil {
		t.Fatal(err)
	}
	cells := tree["simulated"].(map[string]any)["cells"].([]any)
	cell := cells[0].(map[string]any)
	cell["cycles"] = cell["cycles"].(float64) + 1
	tampered, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	stderr.Reset()
	code := realMain(compareArgs, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("comparison against a perturbed baseline exited %d, want 1:\n%s", code, stderr.String())
	}
	for _, want := range []string{"cycles", "FAIL", "baseline", "current"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("diff output lacks %q:\n%s", want, stderr.String())
		}
	}
}

// TestCheckedInBaselineIsCurrent is the PR gate: the full small-suite
// simulated section must match bench/baseline.json bit for bit. If a timing
// model change is intentional, refresh with:
//
//	go run ./cmd/eve-bench -small -label=baseline -repeat=3 -o=bench/baseline.json
func TestCheckedInBaselineIsCurrent(t *testing.T) {
	checkBaseline(t, "baseline.json", "small", workloads.Small())
}

// TestFullBaselineIsCurrent is the same gate at paper scale: the Default
// suite on every system must match bench/full.json bit for bit. The small
// suite hardly reaches the LLC's eviction of lines with outstanding misses
// or the re-misses that follow, and every figure
// in EXPERIMENTS.md is full-size, so this file is the net under the model
// at the scale the claims are made. It takes about 16 CPU-seconds, so it
// is skipped under -short. If a timing-model change is intentional,
// refresh with the command below and report which claims in
// TestPaperClaimsHoldAtFullSize moved:
//
//	go run ./cmd/eve-bench -sim-only -repeat=1 -o=bench/full.json
func TestFullBaselineIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size matrix; run without -short")
	}
	checkBaseline(t, "full.json", "default", workloads.Default())
}

// checkBaseline runs kernels on every system and requires the simulated
// section to match bench/<file> bit for bit.
func checkBaseline(t *testing.T, file, suite string, kernels []*workloads.Kernel) {
	t.Helper()
	base, err := loadReport(filepath.Join("..", "..", "bench", file))
	if err != nil {
		t.Fatalf("%v (generate it with the command on the test's doc comment)", err)
	}
	cfg := benchConfig{
		label:   base.Label,
		suite:   suite,
		kernels: kernels,
		systems: sim.AllSystems(),
		workers: runtime.GOMAXPROCS(0),
		repeats: 1,
	}
	rep, err := buildReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Host performance is machine-specific: band -1 compares only the
	// deterministic simulated section.
	diffs, err := compareReports(base, rep, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) > 0 {
		var tbl strings.Builder
		if err := renderDiffs(&tbl, diffs); err != nil {
			t.Fatal(err)
		}
		t.Errorf("simulated section diverges from bench/%s (%d findings).\n"+
			"If the timing-model change is intentional, refresh the baseline.\n%s",
			file, len(diffs), tbl.String())
	}
}
