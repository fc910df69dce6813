// Package metrics is the derivation layer over the probe snapshot: it turns
// the raw counters PR 4 threaded through the simulator (per-level cache
// counters, MSHR/bank stall cycles, DRAM bus occupancy, Fig 7 breakdowns)
// into the interpreted metrics a simulator artifact is judged by — miss
// rates, MPKI, AMAT, stall fractions, DRAM bandwidth utilization and Fig 7
// category shares. Its EVE readers (Breakdown, VMUStall, SpawnCost,
// EnergyEq) are the only code outside internal/eve that names the engine's
// counters: every consumer of the paper's EVE-only results (Fig 7, Fig 8,
// the §V-E spawn cost, the §VI-B array energy) goes through them.
//
// The layer is pure: Derive reads an immutable probe.Stats snapshot plus the
// run's cycle count and returns a value — no wall clocks, no package-level
// state, no I/O (the package sits in evelint's simpurity/probepurity
// restricted lists). Every division is guarded: a zero-access cache level or
// a zero-cycle cell yields 0 for the affected metrics plus a Degenerate
// flag, never NaN or ±Inf — Go's encoding/json refuses to marshal either,
// and downstream consumers (eve-figures -json, eve-bench) emit Derived
// values verbatim.
package metrics

import (
	"repro/internal/mem"
	"repro/internal/probe"
)

// Latencies parameterizes the AMAT chain: per-level hit latencies plus the
// DRAM access latency, in core cycles.
type Latencies struct {
	L1Hit  int64
	L2Hit  int64
	LLCHit int64
	DRAM   int64
}

// TableIII returns the simulated hierarchy's latencies — the same constants
// the timing model charges (mem.L1DConfig et al.), so AMAT derived here is
// consistent with the cycles the caches actually produced.
func TableIII() Latencies {
	return Latencies{
		L1Hit:  mem.L1DConfig.HitLatency,
		L2Hit:  mem.L2Config.HitLatency,
		LLCHit: mem.LLCConfig.HitLatency,
		DRAM:   mem.DefaultDRAM().Latency,
	}
}

// PeakDRAMBytesPerCycle is single-channel DDR4-2400's peak transfer rate at
// the ~1 GHz core clock, derived from the timing model's own bus occupancy
// (64-byte line / cycles-per-line = 19.2 bytes/cycle = 19.2 GB/s).
func PeakDRAMBytesPerCycle() float64 {
	return float64(mem.LineBytes) / mem.DefaultDRAM().CyclesPerLine
}

// Level is the derived view of one cache level.
type Level struct {
	Accesses int64 `json:"accesses"`
	Misses   int64 `json:"misses"`
	// MissRate is Misses/Accesses — the level's local miss rate.
	MissRate float64 `json:"miss_rate"`
	// MPKI is misses per thousand committed core instructions.
	MPKI float64 `json:"mpki"`
	// MSHRStallFrac and BankStallFrac are the level's structural-stall
	// cycles as a fraction of the cell's total execution time.
	MSHRStallFrac float64 `json:"mshr_stall_frac"`
	BankStallFrac float64 `json:"bank_stall_frac"`
	// Degenerate marks a level whose ratios were underivable (zero accesses,
	// zero instructions or a zero-cycle cell); the affected metrics are 0.
	Degenerate bool `json:"degenerate,omitempty"`
}

// Derived is the full per-cell metric set.
type Derived struct {
	L1D Level `json:"l1d"`
	L2  Level `json:"l2"`
	LLC Level `json:"llc"`
	// AMAT is the average memory access time seen by the core in cycles:
	// L1Hit + m1·(L2Hit + m2·(LLCHit + m3·DRAM)) over the local miss rates.
	AMAT float64 `json:"amat"`
	// DRAMBusUtil is dram.bus.busy_cycles / total cycles in [0,1] (>1 would
	// mean the model let the bus oversubscribe — worth staring at).
	DRAMBusUtil float64 `json:"dram_bus_util"`
	// DRAMBandwidth is the achieved average DRAM bandwidth in bytes/cycle:
	// DRAMBusUtil × the peak DDR4-2400 rate (19.2 bytes/cycle at 1 GHz).
	DRAMBandwidth float64 `json:"dram_bw_bytes_per_cycle"`
	// Fig7Shares is the execution-time breakdown normalized to the engine's
	// total — each category's fraction, summing to 1 — present only for
	// cells with a non-empty eve.breakdown subtree (EVE systems).
	Fig7Shares map[string]float64 `json:"fig7_shares,omitempty"`
	// Degenerate marks a cell whose cell-wide ratios were underivable
	// (zero cycles or an empty snapshot, i.e. a crashed run).
	Degenerate bool `json:"degenerate,omitempty"`
}

// Derive computes the metric set for one cell from its end-of-run snapshot
// and total cycle count, using the Table III latencies for AMAT.
func Derive(st probe.Stats, cycles int64) Derived {
	return DeriveLat(st, cycles, TableIII())
}

// DeriveLat is Derive with an explicit latency parameterization (ablation
// studies with non-Table-III hierarchies; hand-computable tests).
func DeriveLat(st probe.Stats, cycles int64, lat Latencies) Derived {
	var d Derived
	if len(st) == 0 || cycles <= 0 {
		// A crashed or zero-cycle cell: nothing is derivable. Every field
		// stays at its zero value — valid JSON, no NaN/Inf.
		d.Degenerate = true
		return d
	}
	insts, _ := st.Int("core.insts")
	d.L1D = deriveLevel(st.Filter("l1d."), "l1d", insts, cycles)
	d.L2 = deriveLevel(st.Filter("l2."), "l2", insts, cycles)
	d.LLC = deriveLevel(st.Filter("llc."), "llc", insts, cycles)

	// AMAT chains the local miss rates: a degenerate inner level (zero
	// accesses) contributes miss rate 0, which is exact — no accesses at L2
	// means no L1 miss ever paid an L2 miss. A degenerate L1 (the core did
	// no data accesses at all) makes AMAT itself meaningless.
	if d.L1D.Accesses == 0 {
		d.Degenerate = true
	} else {
		d.AMAT = float64(lat.L1Hit) + d.L1D.MissRate*
			(float64(lat.L2Hit)+d.L2.MissRate*
				(float64(lat.LLCHit)+d.LLC.MissRate*float64(lat.DRAM)))
	}

	busy, _ := st.Float("dram.bus.busy_cycles")
	d.DRAMBusUtil = busy / float64(cycles)
	d.DRAMBandwidth = d.DRAMBusUtil * PeakDRAMBytesPerCycle()

	d.Fig7Shares = fig7Shares(st)
	return d
}

// deriveLevel computes one level's metrics from its snapshot subtree.
// sub is st.Filter(prefix+"."); stat names inside keep their full dotted
// form, so lookups stay prefixed.
func deriveLevel(sub probe.Stats, prefix string, insts, cycles int64) Level {
	var l Level
	l.Accesses, _ = sub.Int(prefix + ".accesses")
	l.Misses, _ = sub.Int(prefix + ".misses")
	mshr, _ := sub.Int(prefix + ".mshr.stall_cycles")
	bank, _ := sub.Int(prefix + ".bank.stall_cycles")

	if l.Accesses > 0 {
		l.MissRate = float64(l.Misses) / float64(l.Accesses)
	} else {
		l.Degenerate = true
	}
	if insts > 0 {
		l.MPKI = 1000 * float64(l.Misses) / float64(insts)
	} else {
		l.Degenerate = true
	}
	// cycles > 0 is guaranteed by DeriveLat's cell-wide guard.
	l.MSHRStallFrac = float64(mshr) / float64(cycles)
	l.BankStallFrac = float64(bank) / float64(cycles)
	return l
}

// fig7Shares normalizes the Fig 7 breakdown to category fractions of the
// engine's total execution time, or nil for non-EVE cells.
func fig7Shares(st probe.Stats) map[string]float64 {
	bd := Breakdown(st)
	if bd == nil {
		return nil
	}
	total := float64(Total(bd))
	shares := make(map[string]float64, len(bd))
	for c, v := range bd {
		shares[c] = float64(v) / total
	}
	return shares
}

// Breakdown returns EVE's Fig 7 execution-time breakdown, in cycles keyed by
// category name (all nine, zeros included), or nil when it sums to zero: a
// non-EVE system, an engine that never ran, or a crashed cell.
func Breakdown(st probe.Stats) map[string]int64 {
	const prefix = "eve.breakdown."
	bd := map[string]int64{}
	for _, s := range st.Filter(prefix) {
		bd[s.Name[len(prefix):]] = s.Int
	}
	if Total(bd) <= 0 {
		return nil
	}
	return bd
}

// Total sums a breakdown's categories: the engine's execution time.
func Total(bd map[string]int64) int64 {
	var t int64
	for _, v := range bd {
		t += v
	}
	return t
}

// VMUStall is Fig 8's metric: the fraction of EVE's execution time the VMU
// spent stalled handing a request to the LLC. It is 0 when the engine never
// ran.
func VMUStall(st probe.Stats) float64 {
	cycles, _ := st.Int("eve.cycles")
	if cycles == 0 {
		return 0
	}
	stall, _ := st.Int("eve.vmu.issue_stall")
	return float64(stall) / float64(cycles)
}

// SpawnCost is the L2 reconfiguration cost charged at EVE spawn (§V-E), in
// cycles.
func SpawnCost(st probe.Stats) int64 {
	c, _ := st.Int("eve.spawn.cost")
	return c
}

// EnergyEq is EVE's SRAM array energy in read-equivalents (§VI-B).
func EnergyEq(st probe.Stats) float64 {
	e, _ := st.Float("eve.energy.read_eq")
	return e
}
