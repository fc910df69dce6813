package metrics_test

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// statmap publishes fixed counters (and one float for dram.bus.busy_cycles)
// under its registration path.
type statmap map[string]float64

func (m statmap) ProbeStats(s *probe.Scope) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if strings.HasSuffix(n, "busy_cycles") {
			s.Float(n, m[n])
		} else {
			s.Counter(n, int64(m[n]))
		}
	}
}

// snapshot assembles a synthetic probe snapshot from per-component maps.
func snapshot(t *testing.T, comps map[string]statmap) probe.Stats {
	t.Helper()
	r := probe.NewRegistry()
	names := make([]string, 0, len(comps))
	for n := range comps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Register(n, comps[n])
	}
	return r.Snapshot()
}

// lat is a hand-computable parameterization used by the table below
// (also exactly Table III: L1 2, L2 8, LLC 12, DRAM 50).
var lat = metrics.Latencies{L1Hit: 2, L2Hit: 8, LLCHit: 12, DRAM: 50}

func TestDeriveHandComputed(t *testing.T) {
	st := snapshot(t, map[string]statmap{
		"core": {"insts": 2000},
		"l1d":  {"accesses": 1000, "misses": 100, "mshr.stall_cycles": 50, "bank.stall_cycles": 10},
		"l2":   {"accesses": 100, "misses": 50, "mshr.stall_cycles": 20, "bank.stall_cycles": 0},
		"llc":  {"accesses": 50, "misses": 10, "mshr.stall_cycles": 0, "bank.stall_cycles": 0},
		"dram": {"bus.busy_cycles": 100},
		"eve":  {"breakdown.busy": 600, "breakdown.vmu_stall": 400},
	})
	const cycles = 1000
	d := metrics.DeriveLat(st, cycles, lat)

	if d.Degenerate {
		t.Fatal("fully populated cell flagged degenerate")
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		// l1d: 100/1000 misses, 1000·100/2000 MPKI, 50/1000 and 10/1000 stalls.
		{"l1d.miss_rate", d.L1D.MissRate, 0.1},
		{"l1d.mpki", d.L1D.MPKI, 50},
		{"l1d.mshr_stall_frac", d.L1D.MSHRStallFrac, 0.05},
		{"l1d.bank_stall_frac", d.L1D.BankStallFrac, 0.01},
		// l2: 50/100, 1000·50/2000; llc: 10/50, 1000·10/2000.
		{"l2.miss_rate", d.L2.MissRate, 0.5},
		{"l2.mpki", d.L2.MPKI, 25},
		{"l2.mshr_stall_frac", d.L2.MSHRStallFrac, 0.02},
		{"llc.miss_rate", d.LLC.MissRate, 0.2},
		{"llc.mpki", d.LLC.MPKI, 5},
		// AMAT = 2 + 0.1·(8 + 0.5·(12 + 0.2·50)) = 2 + 0.1·19 = 3.9.
		{"amat", d.AMAT, 3.9},
		// 100 busy cycles over 1000 total; ×19.2 peak bytes/cycle.
		{"dram_bus_util", d.DRAMBusUtil, 0.1},
		{"dram_bw_bytes_per_cycle", d.DRAMBandwidth, 1.92},
		// Shares of the 1000-cycle breakdown.
		{"fig7.busy", d.Fig7Shares["busy"], 0.6},
		{"fig7.vmu_stall", d.Fig7Shares["vmu_stall"], 0.4},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if d.L1D.Accesses != 1000 || d.L1D.Misses != 100 {
		t.Errorf("l1d raw counters = %d/%d, want 1000/100", d.L1D.Accesses, d.L1D.Misses)
	}
	if d.L1D.Degenerate || d.L2.Degenerate || d.LLC.Degenerate {
		t.Error("populated levels flagged degenerate")
	}
}

func TestPeakDRAMBandwidthIsDDR4_2400(t *testing.T) {
	// 19.2 GB/s at the 1 GHz core clock = 19.2 bytes/cycle, derived from the
	// timing model's own line-occupancy constant.
	if got := metrics.PeakDRAMBytesPerCycle(); math.Abs(got-19.2) > 1e-9 {
		t.Errorf("PeakDRAMBytesPerCycle = %v, want 19.2", got)
	}
}

func TestTableIIIMatchesHierarchyConstants(t *testing.T) {
	if got := metrics.TableIII(); got != lat {
		t.Errorf("TableIII() = %+v, want %+v", got, lat)
	}
}

// TestDeriveDegenerateGuards pins the satellite contract: zero-access cache
// levels and zero-cycle cells derive to 0 with Degenerate set — never NaN or
// ±Inf, which encoding/json would refuse to marshal.
func TestDeriveDegenerateGuards(t *testing.T) {
	full := map[string]statmap{
		"core": {"insts": 100},
		"l1d":  {"accesses": 10, "misses": 5},
		"dram": {"bus.busy_cycles": 3},
	}
	cases := []struct {
		name   string
		st     probe.Stats
		cycles int64
		check  func(t *testing.T, d metrics.Derived)
	}{
		{
			name: "empty snapshot (crashed cell)", st: nil, cycles: 100,
			check: func(t *testing.T, d metrics.Derived) {
				if !d.Degenerate {
					t.Error("empty snapshot not flagged degenerate")
				}
				if d.AMAT != 0 || d.DRAMBusUtil != 0 || d.Fig7Shares != nil {
					t.Errorf("empty snapshot derived non-zero metrics: %+v", d)
				}
			},
		},
		{
			name: "zero-cycle cell", st: snapshot(t, full), cycles: 0,
			check: func(t *testing.T, d metrics.Derived) {
				if !d.Degenerate {
					t.Error("zero-cycle cell not flagged degenerate")
				}
				if d.L1D.MSHRStallFrac != 0 || d.DRAMBusUtil != 0 {
					t.Errorf("zero-cycle cell derived non-zero fractions: %+v", d)
				}
			},
		},
		{
			name: "zero-access inner level",
			st: snapshot(t, map[string]statmap{
				"core": {"insts": 100},
				"l1d":  {"accesses": 10, "misses": 0},
				"l2":   {"accesses": 0, "misses": 0},
			}),
			cycles: 100,
			check: func(t *testing.T, d metrics.Derived) {
				if !d.L2.Degenerate {
					t.Error("zero-access l2 not flagged degenerate")
				}
				if d.L2.MissRate != 0 {
					t.Errorf("zero-access l2 miss rate = %v, want 0", d.L2.MissRate)
				}
				if d.Degenerate {
					t.Error("cell flagged degenerate although l1d was derivable")
				}
				// All L1 hits: AMAT is exactly the L1 hit latency.
				if d.AMAT != float64(lat.L1Hit) {
					t.Errorf("AMAT = %v, want %v", d.AMAT, lat.L1Hit)
				}
			},
		},
		{
			name: "no memory accesses at all",
			st: snapshot(t, map[string]statmap{
				"core": {"insts": 100},
				"l1d":  {"accesses": 0, "misses": 0},
			}),
			cycles: 100,
			check: func(t *testing.T, d metrics.Derived) {
				if !d.Degenerate || !d.L1D.Degenerate {
					t.Error("access-free cell not flagged degenerate")
				}
				if d.AMAT != 0 {
					t.Errorf("AMAT = %v, want 0 for an access-free cell", d.AMAT)
				}
			},
		},
		{
			name: "zero instructions",
			st: snapshot(t, map[string]statmap{
				"core": {"insts": 0},
				"l1d":  {"accesses": 10, "misses": 5},
			}),
			cycles: 100,
			check: func(t *testing.T, d metrics.Derived) {
				if !d.L1D.Degenerate {
					t.Error("zero-instruction level not flagged degenerate")
				}
				if d.L1D.MPKI != 0 {
					t.Errorf("MPKI = %v, want 0 with zero instructions", d.L1D.MPKI)
				}
				if d.L1D.MissRate != 0.5 {
					t.Errorf("miss rate = %v, want 0.5 (still derivable)", d.L1D.MissRate)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := metrics.DeriveLat(c.st, c.cycles, lat)
			c.check(t, d)
			// Every degenerate shape must survive the JSON encoder.
			out, err := json.Marshal(d)
			if err != nil {
				t.Fatalf("json.Marshal of degenerate metrics: %v", err)
			}
			for _, bad := range []string{"NaN", "Inf"} {
				if strings.Contains(string(out), bad) {
					t.Errorf("marshaled metrics contain %s: %s", bad, out)
				}
			}
		})
	}
}

// TestFig7SharesSumToOne cross-checks the share derivation against the
// engine's own breakdown on real simulations: for every EVE system, at
// vvadd sizes n={4,32}, the category shares must sum to 1 and each share
// must equal breakdown[c]/total bit-for-bit.
func TestFig7SharesSumToOne(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		cfg := sim.Config{Kind: sim.SysO3EVE, N: n}
		for _, elems := range []int{4, 32} {
			r := sim.Run(cfg, workloads.NewVVAdd(elems))
			if r.Err != nil {
				t.Fatalf("%s vvadd(%d): %v", cfg.Name(), elems, r.Err)
			}
			d := metrics.Derive(r.Stats, r.Cycles)
			if d.Fig7Shares == nil {
				t.Fatalf("%s vvadd(%d): no Fig 7 shares for an EVE system", cfg.Name(), elems)
			}
			names := make([]string, 0, len(d.Fig7Shares))
			for name := range d.Fig7Shares {
				names = append(names, name)
			}
			sort.Strings(names)
			sum := 0.0
			for _, name := range names {
				sum += d.Fig7Shares[name]
			}
			if math.Abs(sum-1.0) > 1e-9 {
				t.Errorf("%s vvadd(%d): shares sum to %v, want 1.0", cfg.Name(), elems, sum)
			}
			var total int64
			for _, s := range r.Stats.Filter("eve.breakdown.") {
				total += s.Int
			}
			for _, name := range names {
				want, ok := r.Stats.Int("eve.breakdown." + name)
				if !ok {
					t.Fatalf("%s: share %q has no breakdown counter", cfg.Name(), name)
				}
				if got := d.Fig7Shares[name]; got != float64(want)/float64(total) {
					t.Errorf("%s vvadd(%d) share %s = %v, want %v/%v",
						cfg.Name(), elems, name, got, want, total)
				}
			}
		}
	}
}

// TestNonEVESystemHasNoShares checks the shares map stays nil for systems
// without an EVE engine.
func TestNonEVESystemHasNoShares(t *testing.T) {
	r := sim.Run(sim.Config{Kind: sim.SysO3}, workloads.NewVVAdd(32))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if d := metrics.Derive(r.Stats, r.Cycles); d.Fig7Shares != nil {
		t.Errorf("O3 cell derived Fig 7 shares: %v", d.Fig7Shares)
	}
}

// TestEVEReaders hand-checks the EVE readers on synthetic snapshots: the
// breakdown keeps every category (zeros too) and is nil when it sums to
// zero, and the VMU stall fraction is 0 rather than NaN without engine time.
func TestEVEReaders(t *testing.T) {
	st := probe.Stats{
		{Name: "eve.breakdown.busy", Kind: probe.KindCounter, Int: 30},
		{Name: "eve.breakdown.dep_stall", Kind: probe.KindCounter, Int: 0},
		{Name: "eve.breakdown.vmu_stall", Kind: probe.KindCounter, Int: 10},
		{Name: "eve.cycles", Kind: probe.KindCounter, Int: 40},
		{Name: "eve.energy.read_eq", Kind: probe.KindFloat, Float: 2.5},
		{Name: "eve.spawn.cost", Kind: probe.KindCounter, Int: 12},
		{Name: "eve.vmu.issue_stall", Kind: probe.KindCounter, Int: 4},
	}
	bd := metrics.Breakdown(st)
	if want := map[string]int64{"busy": 30, "dep_stall": 0, "vmu_stall": 10}; !reflect.DeepEqual(bd, want) {
		t.Errorf("Breakdown = %v, want %v", bd, want)
	}
	if got := metrics.Total(bd); got != 40 {
		t.Errorf("Total = %d, want 40", got)
	}
	if got := metrics.VMUStall(st); got != 0.1 {
		t.Errorf("VMUStall = %v, want 0.1", got)
	}
	if got := metrics.SpawnCost(st); got != 12 {
		t.Errorf("SpawnCost = %d, want 12", got)
	}
	if got := metrics.EnergyEq(st); got != 2.5 {
		t.Errorf("EnergyEq = %v, want 2.5", got)
	}

	idle := probe.Stats{
		{Name: "eve.breakdown.busy", Kind: probe.KindCounter, Int: 0},
		{Name: "eve.cycles", Kind: probe.KindCounter, Int: 0},
		{Name: "eve.vmu.issue_stall", Kind: probe.KindCounter, Int: 0},
	}
	for _, s := range []probe.Stats{idle, nil} {
		if bd := metrics.Breakdown(s); bd != nil {
			t.Errorf("Breakdown(%v) = %v, want nil", s, bd)
		}
		if got := metrics.VMUStall(s); got != 0 {
			t.Errorf("VMUStall(%v) = %v, want 0", s, got)
		}
		if metrics.SpawnCost(s) != 0 || metrics.EnergyEq(s) != 0 {
			t.Errorf("spawn cost or energy non-zero on %v", s)
		}
	}
}
