package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

func TestStaticTablesRender(t *testing.T) {
	cases := map[string][]string{
		TableI():   {"TABLE I", "Packed SIMD", "Next Generation", "Gather/Scatter"},
		TableII():  {"TABLE II", "blc", "m_shft", "bnd"},
		TableIII(): {"TABLE III", "O3+EVE-n", "DDR4-2400", "decoupled"},
		Fig1():     {"FIGURE 1", "in-situ ALUs"},
		Area():     {"EVE-8", "11.7%", "1.55", "2.00x"},
	}
	for out, wants := range cases {
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("rendered output missing %q:\n%s", w, out[:min(200, len(out))])
			}
		}
	}
}

func TestFig2Renders(t *testing.T) {
	out := Fig2()
	for _, w := range []string{"FIGURE 2", "PF (ALUs)", "4 (64)", "32 (8)"} {
		if !strings.Contains(out, w) {
			t.Errorf("Fig2 missing %q", w)
		}
	}
}

func TestFig4ShowsMicroPrograms(t *testing.T) {
	out := Fig4(8)
	for _, w := range []string{"vadd", "vmul", "blc", "wb", "bnz", "init seg_cnt"} {
		if !strings.Contains(out, w) {
			t.Errorf("Fig4 missing %q", w)
		}
	}
}

// TestDynamicFiguresRender runs a minimal matrix and checks every dynamic
// table renders with the expected structure.
func TestDynamicFiguresRender(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run")
	}
	kernels := []*workloads.Kernel{workloads.NewVVAdd(1 << 10), workloads.NewSW(48)}
	s, err := Run(sim.AllSystems(), kernels, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := Fig6(&s, nil)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := TableIV(&s)
	if err != nil {
		t.Fatal(err)
	}
	an, err := AreaNormalized(&s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for out, wants := range map[string][]string{
		fig6:       {"FIGURE 6", "vvadd", "sw", "geomean", "O3+EVE-8"},
		t4:         {"TABLE IV", "VI%", "VPar", "E-32"},
		Fig7(&s):   {"FIGURE 7", "busy", "ld_mem_stall", "dep_stall"},
		Fig8(&s):   {"FIGURE 8", "%"},
		Energy(&s): {"ARRAY ENERGY", "O3+EVE-32"},
		an:         {"AREA-NORMALIZED", "O3+DV"},
	} {
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%q missing from:\n%s", w, out)
			}
		}
	}
}

// TestSpeedupsRequireIOColumn pins the IO lookup: the baseline column is
// found by name wherever it sits, and a section without one is an error
// from Fig 6 and the area-normalized table instead of a silently wrong
// speedup against whatever system comes first.
func TestSpeedupsRequireIOColumn(t *testing.T) {
	s := &Simulated{
		Kernels: []string{"vvadd"},
		Systems: []string{"O3", "IO"}, // IO deliberately not first
		Cells: []SimCell{
			{Kernel: "vvadd", System: "O3", Cycles: 250},
			{Kernel: "vvadd", System: "IO", Cycles: 1000},
		},
	}
	means, err := Geomeans(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != 1 || means["O3"] != 4 {
		t.Errorf("geomeans = %v, want O3 at 4 (IO looked up by name)", means)
	}
	fig6, err := Fig6(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig6, "vvadd    4.00") {
		t.Errorf("Fig6 does not normalize to the IO column:\n%s", fig6)
	}

	s.Systems, s.Cells[1].System = []string{"O3", "O3+IV"}, "O3+IV"
	if _, err := Fig6(s, nil); err == nil {
		t.Error("Fig6 without an IO column returned nil error")
	}
	if _, err := AreaNormalized(s, nil); err == nil {
		t.Error("AreaNormalized without an IO column returned nil error")
	}
}

// TestLoadChecksCellLayout pins the layout the renderers index: a report
// whose cells are not its kernels × systems in kernel-major order does not
// load.
func TestLoadChecksCellLayout(t *testing.T) {
	good := Simulated{Kernels: []string{"vvadd", "sw"}, Systems: []string{"IO", "O3"}}
	for _, k := range good.Kernels {
		for _, sys := range good.Systems {
			good.Cells = append(good.Cells, SimCell{Kernel: k, System: sys})
		}
	}
	if err := good.check(); err != nil {
		t.Fatalf("kernel-major section rejected: %v", err)
	}
	swapped := good
	swapped.Cells = slices.Clone(good.Cells)
	swapped.Cells[1], swapped.Cells[2] = swapped.Cells[2], swapped.Cells[1]
	short := good
	short.Cells = good.Cells[1:]
	for name, s := range map[string]Simulated{"system-major": swapped, "missing cell": short} {
		path := filepath.Join(t.TempDir(), "report.json")
		blob, err := json.Marshal(Report{Schema: Schema, Simulated: s})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s section loaded without error", name)
		}
	}
}

func TestBarClamps(t *testing.T) {
	if bar(-1, 10) != ".........." {
		t.Error("negative fraction should render empty")
	}
	if bar(2, 10) != "##########" {
		t.Error("overflow fraction should render full")
	}
}

func TestFig3Fig5AndListings(t *testing.T) {
	f3 := Fig3()
	for _, w := range []string{"FIGURE 3", "bit-serial", "bit-hybrid", "spare shifter"} {
		if !strings.Contains(f3, w) {
			t.Errorf("Fig3 missing %q", w)
		}
	}
	f5 := Fig5()
	for _, w := range []string{"FIGURE 5", "scoreboard", "16 lanes", "store buffer"} {
		if !strings.Contains(f5, w) {
			t.Errorf("Fig5 missing %q", w)
		}
	}
	for _, op := range []string{"add", "mul", "divu", "sll4", "slt", "sub"} {
		out, err := MicroProgramListing(op, 8)
		if err != nil {
			t.Fatalf("listing %s: %v", op, err)
		}
		if !strings.Contains(out, "tuples") || !strings.Contains(out, "ret") {
			t.Errorf("listing %s malformed", op)
		}
	}
	if _, err := MicroProgramListing("bogus", 8); err == nil {
		t.Error("expected error for unknown op")
	}
}
