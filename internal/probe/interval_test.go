package probe

import (
	"bytes"
	"strings"
	"testing"
)

// TestStatsDelta is the table for the window-diff kernel: counters subtract,
// floats pass through, distributions diff Count/Sum but keep cumulative
// Min/Max, and every monotonicity violation is an error, not a silent
// negative.
func TestStatsDelta(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prev    Stats
		cur     Stats
		want    Stats
		wantErr string
	}{
		{
			name: "counters subtract",
			prev: Stats{{Name: "l2.misses", Kind: KindCounter, Int: 3}},
			cur:  Stats{{Name: "l2.misses", Kind: KindCounter, Int: 10}},
			want: Stats{{Name: "l2.misses", Kind: KindCounter, Int: 7}},
		},
		{
			name: "nil prev diffs against zero",
			cur:  Stats{{Name: "core.insts", Kind: KindCounter, Int: 5}},
			want: Stats{{Name: "core.insts", Kind: KindCounter, Int: 5}},
		},
		{
			name: "new stat mid-run diffs against zero",
			prev: Stats{{Name: "a", Kind: KindCounter, Int: 1}},
			cur: Stats{
				{Name: "a", Kind: KindCounter, Int: 1},
				{Name: "b", Kind: KindCounter, Int: 4},
			},
			want: Stats{
				{Name: "a", Kind: KindCounter, Int: 0},
				{Name: "b", Kind: KindCounter, Int: 4},
			},
		},
		{
			name: "float passes through at current value",
			prev: Stats{{Name: "l2.miss_rate", Kind: KindFloat, Float: 0.5}},
			cur:  Stats{{Name: "l2.miss_rate", Kind: KindFloat, Float: 0.25}},
			want: Stats{{Name: "l2.miss_rate", Kind: KindFloat, Float: 0.25}},
		},
		{
			name: "dist diffs count and sum, keeps cumulative min/max",
			prev: Stats{{Name: "d", Kind: KindDist, Dist: DistValue{Count: 2, Sum: 10, Min: 1, Max: 9}}},
			cur:  Stats{{Name: "d", Kind: KindDist, Dist: DistValue{Count: 5, Sum: 25, Min: 1, Max: 12}}},
			want: Stats{{Name: "d", Kind: KindDist, Dist: DistValue{Count: 3, Sum: 15, Min: 1, Max: 12}}},
		},
		{
			name:    "counter running backwards is an error",
			prev:    Stats{{Name: "l2.misses", Kind: KindCounter, Int: 10}},
			cur:     Stats{{Name: "l2.misses", Kind: KindCounter, Int: 7}},
			wantErr: `counter "l2.misses" ran backwards: 10 -> 7`,
		},
		{
			name:    "negative fresh counter is an error",
			cur:     Stats{{Name: "bad", Kind: KindCounter, Int: -2}},
			wantErr: `counter "bad" ran backwards: 0 -> -2`,
		},
		{
			name:    "dist count running backwards is an error",
			prev:    Stats{{Name: "d", Kind: KindDist, Dist: DistValue{Count: 4}}},
			cur:     Stats{{Name: "d", Kind: KindDist, Dist: DistValue{Count: 2}}},
			wantErr: `distribution "d" count ran backwards: 4 -> 2`,
		},
		{
			name:    "stat disappearing mid-list is an error",
			prev:    Stats{{Name: "a", Kind: KindCounter}, {Name: "b", Kind: KindCounter}},
			cur:     Stats{{Name: "b", Kind: KindCounter}},
			wantErr: `stat "a" disappeared`,
		},
		{
			name:    "stat disappearing at tail is an error",
			prev:    Stats{{Name: "a", Kind: KindCounter}, {Name: "z", Kind: KindCounter}},
			cur:     Stats{{Name: "a", Kind: KindCounter}},
			wantErr: `stat "z" disappeared`,
		},
		{
			name:    "kind change is an error",
			prev:    Stats{{Name: "x", Kind: KindCounter, Int: 1}},
			cur:     Stats{{Name: "x", Kind: KindFloat, Float: 1}},
			wantErr: `stat "x" changed kind`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.cur.Delta(tc.prev)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Delta error = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("Delta = %+v, want %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("Delta[%d] = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// tickSource is a mutable component: counters advance between snapshots and
// it publishes one gauge, so one fake exercises both halves of the sampler.
type tickSource struct {
	accesses int64
	misses   int64
	depth    int64
}

func (s *tickSource) ProbeStats(sc *Scope) {
	sc.Counter("accesses", s.accesses)
	sc.Counter("misses", s.misses)
}

func (s *tickSource) ProbeGauges(sc *Scope, now int64) {
	sc.Counter("depth", s.depth)
}

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	src := &tickSource{depth: 3}
	r.Register("l2", src)
	r.Register("core", fakeSource{"insts": 1}) // no gauges: contributes nothing

	g := r.Gauges(100)
	if len(g) != 1 || g[0].Name != "l2.depth" || g[0].Int != 3 {
		t.Fatalf("Gauges = %+v, want the single l2.depth=3 entry", g)
	}
}

// TestSamplerWindows drives a sampler across three windows by hand and checks
// the geometry contract: samples tile [0, end], deltas are per-window, gauges
// are instantaneous, and SumCounters reconciles with the final snapshot.
func TestSamplerWindows(t *testing.T) {
	r := NewRegistry()
	src := &tickSource{}
	r.Register("l2", src)
	s := NewSampler(r, 100)

	// Window 1: 7 accesses by cycle 103 (first boundary at/after 100).
	src.accesses, src.misses, src.depth = 7, 2, 4
	s.Tick(50) // below the edge: no capture
	if len(s.series.Samples) != 0 {
		t.Fatal("Tick below the window edge captured a sample")
	}
	s.Tick(103)
	// Window 2: 5 more accesses; the clock jumps two windows at once.
	src.accesses, src.misses, src.depth = 12, 3, 1
	s.Tick(305)
	// Trailing partial window to 340.
	src.accesses = 15
	series := s.Finish(340)

	if series.Window != 100 {
		t.Errorf("Window = %d, want 100", series.Window)
	}
	if len(series.Samples) != 3 {
		t.Fatalf("got %d samples, want 3: %+v", len(series.Samples), series.Samples)
	}
	edges := [][2]int64{{0, 103}, {103, 305}, {305, 340}}
	for i, sm := range series.Samples {
		if sm.Start != edges[i][0] || sm.End != edges[i][1] {
			t.Errorf("sample %d spans [%d, %d], want [%d, %d]",
				i, sm.Start, sm.End, edges[i][0], edges[i][1])
		}
	}
	if v, ok := series.Samples[0].Deltas.Int("l2.accesses"); !ok || v != 7 {
		t.Errorf("window 0 accesses delta = %d, want 7", v)
	}
	if v, ok := series.Samples[1].Deltas.Int("l2.accesses"); !ok || v != 5 {
		t.Errorf("window 1 accesses delta = %d, want 5", v)
	}
	if v, ok := series.Samples[1].Gauges.Int("l2.depth"); !ok || v != 1 {
		t.Errorf("window 1 depth gauge = %d, want 1 (instantaneous, not a delta)", v)
	}

	// Reconciliation: per-window deltas sum to the end-of-run snapshot.
	sums := series.SumCounters()
	final := r.Snapshot()
	for name, total := range sums {
		if v, _ := final.Int(name); v != total {
			t.Errorf("window sum of %s = %d, final snapshot %d", name, total, v)
		}
	}
}

func TestSamplerFinishOnShortRun(t *testing.T) {
	r := NewRegistry()
	r.Register("l2", &tickSource{accesses: 3})
	s := NewSampler(r, 1_000_000)
	// The run ends before the first window edge: Finish must still produce
	// one sample covering the whole run.
	series := s.Finish(42)
	if len(series.Samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(series.Samples))
	}
	if sm := series.Samples[0]; sm.Start != 0 || sm.End != 42 {
		t.Errorf("sample spans [%d, %d], want [0, 42]", sm.Start, sm.End)
	}
}

func TestNewSamplerRejectsNonPositiveWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSampler(reg, 0) did not panic")
		}
	}()
	NewSampler(NewRegistry(), 0)
}

func TestSamplerReconfigNilSafe(t *testing.T) {
	var s *Sampler
	s.Reconfig(ReconfigEvent{Comp: "eve", Event: "spawn"}) // must not panic

	r := NewRegistry()
	live := NewSampler(r, 10)
	live.Reconfig(ReconfigEvent{Comp: "eve", Cycle: 0, Event: "borrow", Ways: 4, Owned: 4})
	live.Reconfig(ReconfigEvent{Comp: "eve", Cycle: 90, Event: "return", Ways: 4, Owned: 0})
	series := live.Finish(90)
	if len(series.Reconfigs) != 2 {
		t.Fatalf("got %d reconfig events, want 2", len(series.Reconfigs))
	}
	if ev := series.Reconfigs[1]; ev.Event != "return" || ev.Ways != 4 || ev.Owned != 0 {
		t.Errorf("return event = %+v, want ways 4 owned 0", ev)
	}
}

func TestSeriesWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	src := &tickSource{accesses: 9, misses: 4, depth: 2}
	r.Register("l2", src)
	s := NewSampler(r, 50)
	s.Reconfig(ReconfigEvent{Comp: "eve", Cycle: 0, Event: "spawn", Owned: 4, Cost: 500})
	series := s.Finish(60)

	var a, b bytes.Buffer
	if err := series.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := series.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renderings of the same series differ")
	}
	for _, want := range []string{`"window": 50`, `"l2.accesses": 9`, `"l2.depth": 2`, `"event": "spawn"`, `"cost": 500`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("dump missing %s:\n%s", want, a.String())
		}
	}
	// The "ways" field is omitempty: a spawn event carries none.
	if strings.Contains(a.String(), `"ways"`) {
		t.Errorf("spawn event rendered a ways field:\n%s", a.String())
	}
}

// TestWritePerfettoSeriesCounterTracks checks the counter-track export: a
// sampled series adds "C" events for derived miss rates, stacked cycle
// attributions, gauge curves and reconfiguration way counts alongside the
// ordinary event tracks.
func TestWritePerfettoSeriesCounterTracks(t *testing.T) {
	series := &Series{
		Window: 100,
		Samples: []Sample{{
			Start: 0, End: 100,
			Deltas: Stats{
				{Name: "eve.breakdown.busy", Kind: KindCounter, Int: 7},
				{Name: "eve.breakdown.vmu_stall", Kind: KindCounter, Int: 2},
				{Name: "eve.vmu.lines", Kind: KindCounter, Int: 5},
				{Name: "l2.accesses", Kind: KindCounter, Int: 10},
				{Name: "l2.misses", Kind: KindCounter, Int: 3},
			},
			Gauges: Stats{{Name: "l2.ways_active", Kind: KindCounter, Int: 4}},
		}},
		Reconfigs: []ReconfigEvent{{Comp: "eve", Cycle: 0, Event: "borrow", Ways: 4, Owned: 4}},
	}
	var buf bytes.Buffer
	if err := WritePerfettoSeries(&buf, "run", perfettoEvents(), series); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"C"`, `l2.miss_rate`, `l2.ways_active`, `eve.ways_owned`,
		`{"name":"eve.breakdown","cat":"interval","ph":"C","ts":100,"pid":1,"args":{"busy":7,"vmu_stall":2}}`} {
		if !strings.Contains(out, want) {
			t.Errorf("perfetto output missing %s", want)
		}
	}
	// Without a series the output must be byte-identical to WritePerfetto.
	var plain, nilSeries bytes.Buffer
	if err := WritePerfetto(&plain, "run", perfettoEvents()); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfettoSeries(&nilSeries, "run", perfettoEvents(), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), nilSeries.Bytes()) {
		t.Error("WritePerfettoSeries(nil series) differs from WritePerfetto")
	}
}
