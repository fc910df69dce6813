package report

import (
	"strings"
	"testing"

	"repro/internal/probe"
	"repro/internal/sim"
)

// TestEnergyTable drives Energy with synthetic results: normalization is
// against EVE-1, non-EVE systems are excluded, and kernels with no energy
// data are skipped.
func TestEnergyTable(t *testing.T) {
	systems := []sim.Config{
		{Kind: sim.SysO3},
		{Kind: sim.SysO3EVE, N: 1},
		{Kind: sim.SysO3EVE, N: 8},
	}
	results := [][]sim.Result{
		{
			{Kernel: "vvadd", System: "O3"},
			{Kernel: "vvadd", System: "O3+EVE-1", Stats: energy(100)},
			{Kernel: "vvadd", System: "O3+EVE-8", Stats: energy(150)},
		},
		{
			// No energy data (e.g. a failed cell): the row is skipped.
			{Kernel: "sw", System: "O3"},
			{Kernel: "sw", System: "O3+EVE-1", Stats: energy(0)},
			{Kernel: "sw", System: "O3+EVE-8", Stats: energy(99)},
		},
	}
	out := Energy(systems, results)
	for _, w := range []string{"ARRAY ENERGY", "O3+EVE-1", "O3+EVE-8", "vvadd", "1.00", "1.50"} {
		if !strings.Contains(out, w) {
			t.Errorf("Energy missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "sw") {
		t.Errorf("Energy should skip kernels without a baseline energy:\n%s", out)
	}
	if strings.Contains(out, "O3 ") && strings.Index(out, "O3+") > strings.Index(out, "O3 ") {
		t.Errorf("Energy should only list EVE systems:\n%s", out)
	}
}

// energy is a synthetic snapshot holding only EVE's array energy counter.
func energy(readEq float64) probe.Stats {
	return probe.Stats{{Name: "eve.energy.read_eq", Kind: probe.KindFloat, Float: readEq}}
}

func TestTableAlignsColumns(t *testing.T) {
	out := table([][]string{{"a", "bbbb"}, {"ccc", "d"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != len(lines[1]) {
		t.Fatalf("table rows not aligned:\n%s", out)
	}
	if table(nil) != "" {
		t.Fatal("table(nil) should render nothing")
	}
}

func TestSuiteOfCoversTableIVTaxonomy(t *testing.T) {
	cases := map[string]string{
		"vvadd": "k", "mmult": "k", "spmv": "k", "redux": "k",
		"k-means": "ro", "pathfinder": "ro", "backprop": "ro",
		"jacobi-2d": "rv", "streamcluster-dist": "rv",
		"sw":      "g",
		"unknown": "?",
	}
	for kernel, want := range cases {
		if got := suiteOf(kernel); got != want {
			t.Errorf("suiteOf(%q) = %q, want %q", kernel, got, want)
		}
	}
}

func TestIndexOfPanicsOnUnknownSystem(t *testing.T) {
	systems := []sim.Config{{Kind: sim.SysIO}, {Kind: sim.SysO3}}
	if i := indexOf(systems, "O3"); i != 1 {
		t.Fatalf("indexOf(O3) = %d, want 1", i)
	}
	defer func() {
		if recover() == nil {
			t.Error("indexOf on a missing system should panic")
		}
	}()
	indexOf(systems, "O3+EVE-64")
}
