package report

import (
	"strings"
	"testing"
)

// TestEnergyTable drives Energy with a synthetic section: normalization is
// against EVE-1, non-EVE systems are excluded, and kernels with no energy
// data are skipped.
func TestEnergyTable(t *testing.T) {
	s := &Simulated{
		Kernels: []string{"vvadd", "sw"},
		Systems: []string{"O3", "O3+EVE-1", "O3+EVE-8"},
		Cells: []SimCell{
			{Kernel: "vvadd", System: "O3"},
			{Kernel: "vvadd", System: "O3+EVE-1", EnergyReadEq: 100},
			{Kernel: "vvadd", System: "O3+EVE-8", EnergyReadEq: 150},
			// No energy data (e.g. a failed cell): the row is skipped.
			{Kernel: "sw", System: "O3"},
			{Kernel: "sw", System: "O3+EVE-1"},
			{Kernel: "sw", System: "O3+EVE-8", EnergyReadEq: 99},
		},
	}
	out := Energy(s)
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
	systems := []string{"IO", "O3"}
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
