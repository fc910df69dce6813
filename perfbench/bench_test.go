package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

func init() { logw = io.Discard }

func TestTailRule(t *testing.T) {
	for _, c := range []struct{ n, p, rank int }{
		{100, 90, 90},
		{80, 87, 70},
		{384, 97, 373},
		{11, 9, 1},
		{10, 0, 10},
		{1, 0, 1},
	} {
		p, rank := tailRank(c.n)
		if p != c.p || rank != c.rank {
			t.Errorf("tailRank(%d) = p%d rank %d, want p%d rank %d", c.n, p, rank, c.p, c.rank)
		}
		if c.n > tailBeyond && c.n-rank < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond rank %d", c.n, c.n-rank, rank)
		}
		if c.p > 0 && c.p < 100 {
			// One percentile higher leaves fewer than tailBeyond beyond it.
			if next := ((c.p+1)*c.n + 99) / 100; c.n-next >= tailBeyond {
				t.Errorf("n=%d: p%d still has %d samples beyond it", c.n, c.p+1, c.n-next)
			}
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if tl := tailOf(xs); tl.Value != 90 || tl.String() != "p90 (rank 90 of 100)" {
		t.Errorf("tailOf(1..100) = %v (%s), want 90 (p90)", tl.Value, tl)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},   // overlaps span 2
		{ID: 2, Parent: 0, Start: 20, End: 50},   // covered together: [10,50)
		{ID: 3, Parent: 0, Start: 90, End: 120},  // clipped to [90,100)
		{ID: 4, Parent: 1, Start: 15, End: 20},   // grandchild: only span 1's
		{ID: 5, Parent: 0, Start: 200, End: 210}, // outside the parent
	}
	want := []int64{100 - 40 - 10, 20 - 5, 30, 30, 5, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestInputSeed(t *testing.T) {
	for seed, want := range map[int64]uint64{1: 1, 16: 16, 17: 1, 0: 16, -1: 15, 1 << 40: 16, 1<<40 + 1: 1} {
		if got := inputSeed(seed); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

func TestCorruptedDigestIsAFailure(t *testing.T) {
	p := pass{attempted: 40, digest: "abc"}
	checkReport(&p, "faults", 3, map[string]string{"3": "abc"})
	if p.failed != 0 {
		t.Errorf("matching report digest: %d failed", p.failed)
	}
	checkReport(&p, "faults", 3, map[string]string{"3": "abd"})
	if p.failed != 40 {
		t.Errorf("corrupted report digest: %d failed, want all 40", p.failed)
	}
	p.failed = 0
	checkReport(&p, "faults", 4, map[string]string{"3": "abc"})
	if p.failed != 40 {
		t.Errorf("unpinned seed: %d failed, want all 40", p.failed)
	}
}

func TestPinnedDigestsCoverEveryInput(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= pinnedSeeds; seed++ {
		k := seedKey(inputSeed(seed))
		if d.Explore[k] == "" || d.Faults[k] == "" {
			t.Errorf("input seed %s has no pinned explore or faults digest", k)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the emitted metrics, units and
// workloads in step with the benchmark's declaration.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	pairs := func(ms []struct{ Name, Unit string }) [][2]string {
		var out [][2]string
		for _, m := range ms {
			out = append(out, [2]string{m.Name, m.Unit})
		}
		return out
	}
	if got := pairs(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the command reports %v", got, endToEnd)
	}
	if got := pairs(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, the command reports %v", got, perLayer)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1, 1, t.TempDir(), nil); err != nil {
			t.Error(err)
		}
	}
}

// TestProbeReproducesFaultCell takes a one-kernel fault campaign's cells
// from faults.Run's report, as the faults workload does, and checks the
// layer probe reproduces each cell's cycles and checksum, with the datapath
// calls traced under the sim.run span.
func TestProbeReproducesFaultCell(t *testing.T) {
	k, err := workloads.ByName(workloads.Small(), "vvadd")
	if err != nil {
		t.Fatal(err)
	}
	kernels := []*workloads.Kernel{k}
	rep, err := faults.Run(faults.Config{System: faultSystem, Kernels: kernels, SitesPerKernel: 1, Seed: 1, Workers: 1, VerifyBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	cells := faultCells(rep, faultSystem, kernels)
	if len(cells) != 2 || cells[0].arm != nil || cells[1].arm == nil {
		t.Fatalf("cells %+v, want a baseline and one armed injection", cells)
	}
	tr := newTracer()
	if pt := probeCells(tr, cells); pt.failed != 0 || pt.funcInstrs == 0 || pt.simInstrs == 0 {
		t.Fatalf("probe: %+v", pt)
	}
	spans := tr.snapshot()
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Name == "faults.exec" && spans[s.Parent].Name != "sim.run" {
			t.Errorf("faults.exec under %s", spans[s.Parent].Name)
		}
	}
	if count["cell"] != 2 || count["mem.flat_new"] != 4 || count["isa.functional"] != 2 || count["sim.run"] != 2 || count["faults.exec"] == 0 {
		t.Errorf("span counts %v", count)
	}

	c := cells[1]
	c.checksum++
	if pt := probeCells(newTracer(), []cell{c}); pt.failed != 1 {
		t.Errorf("probe against a corrupted checksum: %d failed, want 1", pt.failed)
	}
}

// TestLayerMetrics derives the per-layer metrics from a hand-built span
// tree: one traced sweep cell and one probed cell whose datapath calls
// split its sim.run span.
func TestLayerMetrics(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Cell: -1, Name: "pass", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Cell: -1, Name: "sweep", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Cell: 0, Name: "sweep.cell", Start: 0, End: 500},
		{ID: 3, Parent: -1, Cell: 0, Name: "cell", Start: 1000, End: 2000},
		{ID: 4, Parent: 3, Cell: 0, Name: "mem.flat_new", Start: 1000, End: 1010},
		{ID: 5, Parent: 3, Cell: 0, Name: "isa.functional", Start: 1010, End: 1110},
		{ID: 6, Parent: 5, Cell: 0, Name: "mem.flat_new", Start: 1010, End: 1020},
		{ID: 7, Parent: 3, Cell: 0, Name: "sim.run", Start: 1110, End: 1910},
		{ID: 8, Parent: 7, Cell: 0, Name: "faults.exec", Start: 1200, End: 1400},
		{ID: 9, Parent: 7, Cell: 0, Name: "faults.read", Start: 1500, End: 1600},
	}
	obs := newSpanObserver(newTracer(), -1)
	obs.busy = 500
	obs.counts["core.insts"] = 7
	got := layerMetrics(spans, selfTimes(spans), 2, obs, probeTotals{funcInstrs: 9, simInstrs: 8})
	want := map[string]float64{
		"mem.flat_new_ms_p50":            10e-6,
		"mem.flat_share":                 10.0 / 800,
		"isa.functional_share":           90.0 / 800,
		"isa.ns_per_instr":               10,
		"sim.run_ms_p50":                 800e-6,
		"sim.ns_per_instr":               100,
		"sim.model_share":                (500.0 - 10 - 90) / 800,
		"sweep.utilization":              0.25,
		"faults.datapath_share":          300.0 / 800,
		"faults.exec_us_p50":             0.2,
		"faults.exec_calls":              1,
		"core.insts":                     7,
		"campaign.journal_append_us_p50": 0,
	}
	for name, w := range want {
		if g := got[name]; g < w*(1-1e-9)-1e-12 || g > w*(1+1e-9)+1e-12 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

// TestObserversUnderConcurrentSweeps drives both observers from a
// multi-worker sweep, twice, as faults.Run's two sweeps do, and checks
// every cell is recorded once under its pass-wide index.
func TestObserversUnderConcurrentSweeps(t *testing.T) {
	stats := probe.Stats{{Name: "core.insts", Kind: probe.KindCounter, Int: 3}}
	cells := make([]sweep.Cell, 50)
	for i := range cells {
		cells[i] = sweep.Cell{Kernel: "k", System: "s", Run: func() sim.Result { return sim.Result{Stats: stats} }}
	}
	tr := newTracer()
	spans, walls := newSpanObserver(tr, -1), newWallClock()
	for _, obs := range []sweep.Observer{spans, walls} {
		for range 2 {
			if _, err := sweep.ForEach(cells, sweep.Options{Workers: 4, Observer: obs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(walls.walls) != 100 || spans.counts["core.insts"] != 300 {
		t.Errorf("%d walls, %d insts; want 100 and 300", len(walls.walls), spans.counts["core.insts"])
	}
	ids := map[int]bool{}
	for _, s := range tr.snapshot() {
		if s.Name == "sweep.cell" {
			ids[s.Cell] = true
		}
	}
	if len(ids) != 100 {
		t.Errorf("%d distinct cell spans, want 100", len(ids))
	}
}
