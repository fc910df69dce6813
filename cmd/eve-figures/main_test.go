package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current simulator output")

// TestSmallJSONGolden pins the exact JSON matrix of `eve-figures -small
// -json` under testdata/. Any change to the timing model — cycle counts,
// instruction mixes, breakdowns, energy — shows up as a diff against the
// golden file, so regressions are caught by `go test` instead of by
// eyeballing figures. Refresh intentionally with:
//
//	go test ./cmd/eve-figures -run TestSmallJSONGolden -update
func TestSmallJSONGolden(t *testing.T) {
	results, err := smallMatrix()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emitJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "small.golden.json", buf.Bytes())
}

// smallMatrix runs the -small sweep once per test binary: the JSON golden
// and the rendered-figure goldens all read the same matrix.
var smallMatrix = sync.OnceValues(func() ([][]sim.Result, error) {
	return sweep.Matrix(sim.AllSystems(), workloads.Small(),
		sweep.Options{Workers: runtime.GOMAXPROCS(0), AbortOnError: true})
})

// TestFigureTextGoldens pins the exact stdout of `eve-figures -small
// -exp=fig7`, `-exp=fig8` and `-exp=energy`: the EVE-only figures, which
// read the Fig 7 breakdown, the VMU stall fraction and the array energy
// out of each cell's snapshot. Refresh with:
//
//	go test ./cmd/eve-figures -run TestFigureTextGoldens -update
func TestFigureTextGoldens(t *testing.T) {
	results, err := smallMatrix()
	if err != nil {
		t.Fatal(err)
	}
	systems := sim.AllSystems()
	for _, fig := range []struct {
		exp    string
		render func([]sim.Config, [][]sim.Result) string
	}{
		{"fig7", report.Fig7},
		{"fig8", report.Fig8},
		{"energy", report.Energy},
	} {
		t.Run(fig.exp, func(t *testing.T) {
			// The command prints the figure with fmt.Println.
			checkGolden(t, fig.exp+".small.golden.txt", []byte(fig.render(systems, results)+"\n"))
		})
	}
}

// checkGolden compares got with testdata/name byte for byte, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s.\n"+
			"If the timing-model change is intentional, refresh with -update.\n"+
			"got %d bytes, want %d bytes; first divergence at byte %d",
			golden, len(got), len(want), firstDiff(got, want))
	}
}

// TestFailingCellJSONGolden pins the JSON shape of a matrix containing
// failing cells: a checker rejection keeps its row with a stable one-line
// error, and a panicking cell (zero cycles) emits speedup 0 rather than
// ±Inf — which would not marshal at all. Refresh with -update.
func TestFailingCellJSONGolden(t *testing.T) {
	badCheck := &workloads.Kernel{
		Name: "bad-check", Suite: "t", Input: "64",
		Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
			addr := b.Mem.AllocU32(64)
			if vector {
				b.SetVL(64)
				b.Load(1, addr)
				b.Store(1, addr)
				b.Fence()
			} else {
				b.ScalarStore(addr, b.ScalarLoad(addr))
			}
			return func() error { return fmt.Errorf("synthetic checker failure\nsecond line is host diagnostics") }
		},
	}
	panics := &workloads.Kernel{
		Name: "panics", Suite: "t", Input: "0",
		Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
			panic("synthetic simulator bug")
		},
	}
	results, err := sweep.Matrix(
		[]sim.Config{{Kind: sim.SysIO}, {Kind: sim.SysO3}},
		[]*workloads.Kernel{badCheck, panics},
		sweep.Options{Workers: 2})
	if err == nil {
		t.Fatal("matrix with failing kernels reported no aggregate error")
	}
	var buf bytes.Buffer
	if err := emitJSON(&buf, results); err != nil {
		t.Fatalf("emitJSON over failing cells: %v", err)
	}
	checkGolden(t, "failing.golden.json", buf.Bytes())

	n, msgs := countFailures(results)
	if n != 4 {
		t.Errorf("countFailures = %d, want 4 (both kernels fail on both systems)", n)
	}
	for _, m := range msgs {
		if strings.ContainsRune(m, '\n') {
			t.Errorf("failure message contains a newline (stack leaked): %q", m)
		}
	}
}

// TestDegenerateCellDerivedMetricsMarshal pins the derived-metric guard: a
// cell with a populated snapshot but zero cycles (and zero-access cache
// levels) must emit derived metrics as 0 with "degenerate": true — Go's
// encoding/json errors on NaN/Inf, so an unguarded division would make the
// whole matrix unemittable.
func TestDegenerateCellDerivedMetricsMarshal(t *testing.T) {
	reg := probe.NewRegistry()
	reg.Register("core", constStats{"insts": 0})
	reg.Register("l1d", constStats{"accesses": 0, "misses": 0})
	deg := sim.Result{
		System: sim.Config{Kind: sim.SysIO}.Name(),
		Kernel: "degenerate",
		Cycles: 0,
		Stats:  reg.Snapshot(),
		Err:    fmt.Errorf("synthetic zero-cycle cell"),
	}
	var buf bytes.Buffer
	if err := emitJSON(&buf, [][]sim.Result{{deg}}); err != nil {
		t.Fatalf("emitJSON over a degenerate cell: %v", err)
	}
	out := buf.String()
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("degenerate cell emitted %s:\n%s", bad, out)
		}
	}
	if !strings.Contains(out, `"degenerate": true`) {
		t.Errorf("degenerate cell not flagged in JSON:\n%s", out)
	}
	var rows []jsonResult
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(rows) != 1 || rows[0].Derived == nil {
		t.Fatalf("degenerate cell lost its derived block: %+v", rows)
	}
	d := rows[0].Derived
	if !d.Degenerate {
		t.Error("zero-cycle cell's Derived.Degenerate is false")
	}
	if d.AMAT != 0 || d.DRAMBusUtil != 0 || d.L1D.MissRate != 0 {
		t.Errorf("degenerate cell derived non-zero ratios: %+v", d)
	}
}

// constStats is a minimal probe source for synthetic snapshots.
type constStats map[string]int64

func (m constStats) ProbeStats(s *probe.Scope) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.Counter(n, m[n])
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestBuildJSONRequiresIOColumn locks in the emitJSON fix: the IO baseline
// is looked up by name, and a matrix without an IO column is an error
// instead of a silently wrong speedup against whatever sits at index 0.
func TestBuildJSONRequiresIOColumn(t *testing.T) {
	k := workloads.NewVVAdd(256)
	withIO, err := sweep.Matrix(
		[]sim.Config{{Kind: sim.SysO3}, {Kind: sim.SysIO}}, // IO deliberately not first
		[]*workloads.Kernel{k}, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := buildJSON(withIO)
	if err != nil {
		t.Fatalf("buildJSON with an IO column: %v", err)
	}
	ioCycles := float64(withIO[0][1].Cycles)
	for _, r := range rows {
		want := ioCycles / float64(r.Cycles)
		if r.SpeedupVsIO != want {
			t.Errorf("%s speedup_vs_io = %v, want %v (IO looked up by name)", r.System, r.SpeedupVsIO, want)
		}
	}

	withoutIO := sim.Matrix([]sim.Config{{Kind: sim.SysO3}, {Kind: sim.SysO3IV}}, []*workloads.Kernel{k})
	if _, err := buildJSON(withoutIO); err == nil {
		t.Error("buildJSON without an IO column returned nil error")
	}
}
