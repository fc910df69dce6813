// Package report renders the paper's tables and figures as aligned text:
// the Fig 2 taxonomy sweep, Table III system configurations, Fig 6 speedups,
// Table IV characterization, Fig 7 execution breakdowns, Fig 8 VMU stalls,
// and the §VI circuits evaluation.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analytic"
	"repro/internal/eve"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/uop"
	"repro/internal/uprog"
	"repro/internal/vreg"
)

// newCostOnlyPrograms builds the Fig 4 reference micro-programs (add, mul).
func newCostOnlyPrograms(n int) []*uop.Program {
	l := uprog.NewLayout(n)
	return []*uop.Program{
		uprog.Add(l, 3, 1, 2, false),
		uprog.Mul(l, 3, 1, 2, false, false),
	}
}

// table renders rows with aligned columns.
func table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// bar renders a proportional ASCII bar.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac * float64(width))
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// TableI renders the vector-architecture taxonomy (Table I).
func TableI() string {
	rows := [][]string{
		{"Attribute", "Packed SIMD", "Long Vector", "Next Generation"},
		{"Length", "fixed, short", "scalable, long", "scalable"},
		{"Element Width", "variable", "fixed", "variable"},
		{"Predication", "limited", "full", "full"},
		{"Cross-Element Ops", "full", "limited", "full"},
		{"Memory Gather/Scatter", "limited", "full", "full"},
		{"Integration", "integrated", "decoupled", "either"},
		{"Speculative Execution", "yes", "no", "either"},
		{"Compute Pipeline", "integrated", "decoupled", "either"},
		{"Memory Bandwidth", "modest", "large", "either"},
		{"Memory Latency", "low", "high", "either"},
	}
	return "TABLE I. A SUMMARY OF VECTOR ARCHITECTURES\n\n" + table(rows)
}

// TableII renders the supported μops (Table II).
func TableII() string {
	rows := [][]string{
		{"μOperation", "Syntax", "Description"},
		{"read", "rd a, src", "read a into src"},
		{"write", "wr d, src", "write src into d"},
		{"blc", "blc a, b", "bit-line compute of a and b"},
		{"lshift", "lshft", "1-bit shift left"},
		{"rshift", "rshft", "1-bit shift right"},
		{"lrotate", "lrot", "1-bit rotate left"},
		{"rrotate", "rrot", "1-bit rotate right"},
		{"mask shft", "m_shft", "1-bit shift right the XRegister"},
		{"cnt_init", "init cnt, val", "initialize cnt to val"},
		{"cnt_decr", "decr cnt", "decrement cnt by one"},
		{"bnz", "bnz cnt, l", "branch to l if cnt is not zero"},
		{"bnd", "bnd cnt, l", "branch to l if cnt is a decade"},
		{"ret", "ret", "conclude execution"},
	}
	return "TABLE II. SUPPORTED EVE MICRO-OPERATIONS\n\n" + table(rows)
}

// Fig1 renders the S-CIM data-organization geometry (Fig 1): elements,
// column groups and in-situ ALUs per parallelization factor.
func Fig1() string {
	rows := [][]string{{"PF", "segs/elem", "col groups", "elem width", "elems/array", "in-situ ALUs", "row util", "col util"}}
	for _, n := range analytic.Factors {
		g := vreg.Standard(n)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", g.Segs()),
			fmt.Sprintf("%d", g.ColumnGroups()),
			fmt.Sprintf("%d", g.ElementWidth()),
			fmt.Sprintf("%d", g.ElementsPerArray()),
			fmt.Sprintf("%d", g.InSituALUs()),
			fmt.Sprintf("%.2f", g.RowUtilization()),
			fmt.Sprintf("%.2f", g.ColUtilization()),
		})
	}
	return "FIGURE 1. Data organization in the S-CIM SRAM array (256x256, 32 vregs, 32-bit elements)\n\n" + table(rows)
}

// Fig2 renders the latency/throughput taxonomy sweep (Fig 2), using the
// measured micro-program cycle counts.
func Fig2() string {
	rows := [][]string{{"PF (ALUs)", "add lat", "mul lat", "add lat(norm)", "mul lat(norm)", "add thpt(norm)", "mul thpt(norm)"}}
	for _, r := range analytic.Fig2() {
		rows = append(rows, []string{
			fmt.Sprintf("%d (%d)", r.N, r.ALUs),
			fmt.Sprintf("%d", r.AddLat),
			fmt.Sprintf("%d", r.MulLat),
			fmt.Sprintf("%.3f", r.AddLatN),
			fmt.Sprintf("%.3f", r.MulLatN),
			fmt.Sprintf("%.2f %s", r.AddThpN, bar(r.AddThpN/4, 20)),
			fmt.Sprintf("%.2f %s", r.MulThpN, bar(r.MulThpN/4, 20)),
		})
	}
	return "FIGURE 2. Latency and throughput of add/logic and multiply vs. parallelization factor\n" +
		"(256x256 S-CIM SRAM, 32 vector registers, normalized to PF=1)\n\n" + table(rows)
}

// Fig4 renders the add and mul micro-programs for a given factor (Fig 4).
func Fig4(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 4. add and mul macro-operations for EVE-%d\n", n)
	cm := newCostOnlyPrograms(n)
	for _, p := range cm {
		fmt.Fprintf(&b, "\n%s (%d tuples static):\n", p.Name, p.Len())
		limit := p.Len()
		if limit > 24 {
			limit = 24
		}
		for i := 0; i < limit; i++ {
			t := p.Tuples[i]
			fmt.Fprintf(&b, "  %2d: %s\n", i, tupleString(t))
		}
		if p.Len() > limit {
			fmt.Fprintf(&b, "  ... (%d more)\n", p.Len()-limit)
		}
	}
	return b.String()
}

func tupleString(t uop.Tuple) string {
	parts := []string{}
	switch t.Ctr.Kind {
	case uop.CInit:
		parts = append(parts, fmt.Sprintf("init %v,%d", t.Ctr.Cnt, t.Ctr.Val))
	case uop.CDecr:
		parts = append(parts, fmt.Sprintf("decr %v", t.Ctr.Cnt))
	case uop.CIncr:
		parts = append(parts, fmt.Sprintf("incr %v", t.Ctr.Cnt))
	}
	if t.Arith.Kind != uop.ANone {
		a := t.Arith
		switch a.Kind {
		case uop.ABLC:
			parts = append(parts, fmt.Sprintf("blc %v,%v", a.A, a.B))
		case uop.AWriteback:
			if a.Dst == uop.DstRow {
				parts = append(parts, fmt.Sprintf("wb %v,%v", a.DstR, a.Src))
			} else {
				parts = append(parts, fmt.Sprintf("wb %v,%v", a.Dst, a.Src))
			}
		case uop.ARead:
			parts = append(parts, fmt.Sprintf("rd %v,%v", a.A, a.Dst))
		case uop.AWrite:
			parts = append(parts, fmt.Sprintf("wr %v,%v", a.A, a.Src))
		default:
			parts = append(parts, a.Kind.String())
		}
	}
	switch t.Ctl.Kind {
	case uop.LBnz:
		parts = append(parts, fmt.Sprintf("bnz %v,%d", t.Ctl.Cnt, t.Ctl.Target))
	case uop.LBnd:
		parts = append(parts, fmt.Sprintf("bnd %v,%d", t.Ctl.Cnt, t.Ctl.Target))
	case uop.LJmp:
		parts = append(parts, fmt.Sprintf("jmp %d", t.Ctl.Target))
	case uop.LRet:
		parts = append(parts, "ret")
	}
	return strings.Join(parts, " ; ")
}

// TableIII renders the simulated system configurations.
func TableIII() string {
	rows := [][]string{
		{"System", "Description"},
		{"IO", "single-issue in-order RV core; L1D 32KB 4-way 2-cyc; L2 512KB 8-way 8-cyc 32 MSHRs"},
		{"O3", "8-wide out-of-order core, 192-entry window; same caches as IO"},
		{"O3+IV", "integrated vector unit: VL=4, shares O3 pipes and LSQ"},
		{"O3+DV", "decoupled vector engine: VL=64, in-order, 4 pipes, VMU into L2"},
		{"O3+EVE-n", "EVE from half the L2 ways: VMU into LLC; VL 2048/2048/2048/1024/512/256 for n=1/2/4/8/16/32"},
		{"LLC", "2MB 16-way 12-cyc hit, 32 MSHRs (shared)"},
		{"Memory", "single-channel DDR4-2400 (19.2 GB/s, ~50-cycle latency)"},
	}
	return "TABLE III. SIMULATED SYSTEMS\n\n" + table(rows)
}

// Fig6 renders the speedup-over-IO figure from a result matrix produced by
// sim.Matrix with sim.AllSystems ordering.
func Fig6(systems []sim.Config, results [][]sim.Result, geoSet func(kernel string) bool) string {
	rows := [][]string{}
	head := []string{"kernel"}
	for _, s := range systems[1:] { // skip IO (the baseline)
		head = append(head, s.Name())
	}
	rows = append(rows, head)

	speedups := make(map[string][]float64) // system -> speedups for geomean
	for _, kr := range results {
		io := float64(kr[0].Cycles)
		row := []string{kr[0].Kernel}
		for j := 1; j < len(kr); j++ {
			sp := stats.Speedup(io, float64(kr[j].Cycles))
			row = append(row, fmt.Sprintf("%.2f", sp))
			if geoSet == nil || geoSet(kr[0].Kernel) {
				speedups[systems[j].Name()] = append(speedups[systems[j].Name()], sp)
			}
		}
		rows = append(rows, row)
	}
	geo := []string{"geomean"}
	for _, s := range systems[1:] {
		geo = append(geo, fmt.Sprintf("%.2f", stats.Geomean(speedups[s.Name()])))
	}
	rows = append(rows, geo)
	return "FIGURE 6. Performance normalized to the in-order core (IO)\n\n" + table(rows)
}

// TableIV renders the benchmark characterization plus speedups vs O3+IV.
func TableIV(systems []sim.Config, results [][]sim.Result) string {
	ivIdx := indexOf(systems, "O3+IV")
	dvIdx := indexOf(systems, "O3+DV")
	rows := [][]string{{"name", "suite", "DIns", "VI%", "ctrl", "ialu", "imul", "xe", "us", "st", "idx", "prd", "DOp", "VO%", "VPar", "vs-IV:DV", "E-1", "E-2", "E-4", "E-8", "E-16", "E-32"}}
	for _, kr := range results {
		m := kr[dvIdx].Mix // characterize at VL=64, as the paper's Table IV does
		classPct := func(c isa.Class) string {
			if m.VectorInstrs == 0 {
				return "0"
			}
			return fmt.Sprintf("%.0f", 100*float64(m.ByClass[c])/float64(m.VectorInstrs))
		}
		iv := float64(kr[ivIdx].Cycles)
		row := []string{
			kr[0].Kernel, suiteOf(kr[0].Kernel),
			fmt.Sprintf("%.2fM", float64(m.DynamicInstrs())/1e6),
			fmt.Sprintf("%.0f%%", 100*m.VectorPct()),
			classPct(isa.ClassCtrl), classPct(isa.ClassIALU), classPct(isa.ClassIMul),
			classPct(isa.ClassXE), classPct(isa.ClassUS), classPct(isa.ClassST), classPct(isa.ClassIdx),
			fmt.Sprintf("%.0f", 100*float64(m.Predicated)/float64(max(1, int(m.VectorInstrs)))),
			fmt.Sprintf("%.2fM", float64(m.TotalOps())/1e6),
			fmt.Sprintf("%.0f%%", 100*m.VectorOpPct()),
			fmt.Sprintf("%.1f", m.LogicalParallelism()),
		}
		for _, name := range []string{"O3+DV", "O3+EVE-1", "O3+EVE-2", "O3+EVE-4", "O3+EVE-8", "O3+EVE-16", "O3+EVE-32"} {
			idx := indexOf(systems, name)
			row = append(row, fmt.Sprintf("%.2f", stats.Speedup(iv, float64(kr[idx].Cycles))))
		}
		rows = append(rows, row)
	}
	return "TABLE IV. BENCHMARK APPLICATIONS (characterization of the vectorized runs; speedups vs O3+IV)\n\n" + table(rows)
}

// Fig7 renders the execution breakdown per EVE design, normalized to EVE-1.
func Fig7(systems []sim.Config, results [][]sim.Result) string {
	var b strings.Builder
	b.WriteString("FIGURE 7. Execution breakdown (normalized to EVE-1 execution time)\n")
	eveIdx := []int{}
	for j, s := range systems {
		if s.Kind == sim.SysO3EVE {
			eveIdx = append(eveIdx, j)
		}
	}
	for _, kr := range results {
		base := float64(metrics.Total(metrics.Breakdown(kr[eveIdx[0]].Stats)))
		if base == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s:\n", kr[0].Kernel)
		rows := [][]string{{"design", "total"}}
		for c := eve.Category(0); c < eve.NumCategories; c++ {
			rows[0] = append(rows[0], c.String())
		}
		for _, j := range eveIdx {
			bd := metrics.Breakdown(kr[j].Stats)
			row := []string{systems[j].Name(), fmt.Sprintf("%.2f", float64(metrics.Total(bd))/base)}
			for c := eve.Category(0); c < eve.NumCategories; c++ {
				row = append(row, fmt.Sprintf("%.2f", float64(bd[c.String()])/base))
			}
			rows = append(rows, row)
		}
		b.WriteString(table(rows))
	}
	return b.String()
}

// Fig8 renders the VMU cache-induced stall fractions.
func Fig8(systems []sim.Config, results [][]sim.Result) string {
	var b strings.Builder
	b.WriteString("FIGURE 8. Cache-induced stalls in the VMU (% of execution time the VMU stalls sending a request to the LLC)\n\n")
	rows := [][]string{{"kernel"}}
	eveIdx := []int{}
	for j, s := range systems {
		if s.Kind == sim.SysO3EVE {
			eveIdx = append(eveIdx, j)
			rows[0] = append(rows[0], s.Name())
		}
	}
	for _, kr := range results {
		row := []string{kr[0].Kernel}
		for _, j := range eveIdx {
			stall := metrics.VMUStall(kr[j].Stats)
			row = append(row, fmt.Sprintf("%4.1f%% %s", 100*stall, bar(stall, 16)))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(rows))
	return b.String()
}

// Area renders the §VI/§VII-B circuits evaluation.
func Area() string {
	var b strings.Builder
	b.WriteString("CIRCUITS EVALUATION (§VI) and AREA EFFICIENCY (§VII-B)\n\n")
	rows := [][]string{{"design", "SRAM overhead", "L2 total overhead", "cycle time (ns)", "clock penalty", "system area vs O3"}}
	for _, n := range analytic.Factors {
		rows = append(rows, []string{
			fmt.Sprintf("EVE-%d", n),
			fmt.Sprintf("%.1f%%", 100*analytic.SRAMOverhead(n)),
			fmt.Sprintf("%.1f%%", 100*analytic.TotalOverhead(n)),
			fmt.Sprintf("%.3f", analytic.CycleTimeNS(n)),
			fmt.Sprintf("%.3f", analytic.ClockPenalty(n)),
			fmt.Sprintf("%.2fx", analytic.SystemAreaFactor(fmt.Sprintf("O3+EVE-%d", n))),
		})
	}
	b.WriteString(table(rows))
	fmt.Fprintf(&b, "\nStructural overhead (DTUs + ROM): %.1f%% of L2 sub-arrays\n", 100*analytic.StructuralOverhead())
	fmt.Fprintf(&b, "Baselines: O3+IV %.2fx, O3+DV %.2fx of O3 area\n",
		analytic.SystemAreaFactor("O3+IV"), analytic.SystemAreaFactor("O3+DV"))
	fmt.Fprintf(&b, "blc energy vs vanilla read: %.2fx\n", analytic.BLCEnergyMult)
	return b.String()
}

// AreaNormalized renders area-normalized performance (speedup over IO per
// unit area), the paper's headline EVE-8 vs DV comparison.
func AreaNormalized(systems []sim.Config, results [][]sim.Result, geoSet func(string) bool) string {
	perSys := map[string][]float64{}
	for _, kr := range results {
		io := float64(kr[0].Cycles)
		for j := 1; j < len(kr); j++ {
			if geoSet == nil || geoSet(kr[0].Kernel) {
				perSys[systems[j].Name()] = append(perSys[systems[j].Name()], stats.Speedup(io, float64(kr[j].Cycles)))
			}
		}
	}
	names := []string{}
	for n := range perSys {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := [][]string{{"system", "geomean speedup", "area vs O3", "area-normalized"}}
	for _, n := range names {
		g := stats.Geomean(perSys[n])
		a := analytic.SystemAreaFactor(n)
		rows = append(rows, []string{n, fmt.Sprintf("%.2f", g), fmt.Sprintf("%.2fx", a), fmt.Sprintf("%.2f", g/a)})
	}
	return "AREA-NORMALIZED PERFORMANCE (geomean speedup over IO / area factor)\n\n" + table(rows)
}

// Energy renders the array-energy analysis (§VI-B): per-kernel EVE SRAM
// energy in read-equivalents, normalized to EVE-1 — checking the paper's
// point (after VRAM) that the execution paradigms have comparable energy
// efficiency, since the same logical bit-work is done at every factor.
func Energy(systems []sim.Config, results [][]sim.Result) string {
	var b strings.Builder
	b.WriteString("ARRAY ENERGY (read-equivalents, normalized to EVE-1; §VI-B weights: blc 1.2x read, peripheral ops 0.1x)\n\n")
	rows := [][]string{{"kernel"}}
	eveIdx := []int{}
	for j, s := range systems {
		if s.Kind == sim.SysO3EVE {
			eveIdx = append(eveIdx, j)
			rows[0] = append(rows[0], s.Name())
		}
	}
	for _, kr := range results {
		base := metrics.EnergyEq(kr[eveIdx[0]].Stats)
		if base == 0 {
			continue
		}
		row := []string{kr[0].Kernel}
		for _, j := range eveIdx {
			row = append(row, fmt.Sprintf("%.2f", metrics.EnergyEq(kr[j].Stats)/base))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(rows))
	return b.String()
}

func indexOf(systems []sim.Config, name string) int {
	for i, s := range systems {
		if s.Name() == name {
			return i
		}
	}
	panic(fmt.Sprintf("report: system %q not in sweep", name))
}

func suiteOf(kernel string) string {
	switch kernel {
	case "vvadd", "mmult", "spmv", "redux":
		return "k"
	case "k-means", "pathfinder", "backprop":
		return "ro"
	case "jacobi-2d", "streamcluster-dist":
		return "rv"
	case "sw":
		return "g"
	}
	return "?"
}
