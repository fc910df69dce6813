// Package eve implements the EVE micro-architecture (paper §V): the vector
// control unit (VCU) receiving committed vector instructions from the core,
// the vector sequencing unit (VSU) executing micro-programs on the EVE
// SRAMs, the vector memory unit (VMU) generating cacheline requests against
// the LLC, the vector reduction unit (VRU), and the data transpose units
// (DTUs) — together with the way-partitioned L2 reconfiguration and the
// nine-category execution-time breakdown of Fig 7.
//
// Timing follows the paper's methodology (§VII-A): instructions execute
// functionally in the ISA layer while EVE charges cycles derived from the
// *measured lengths of the real micro-programs* (internal/uprog) running on
// the bit-level circuit model.
package eve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/analytic"
	"repro/internal/isa"
	"repro/internal/uop"
	"repro/internal/uprog"
)

// opCost is a macro-operation's measured cost: VSU cycles plus per-array
// energy in read-equivalents (§VI-B), both taken from one execution of the
// real micro-programs, and the cycles of the longest single program among
// them, which the watchdog rule compares against an engine's budget.
type opCost struct {
	cycles  int
	energy  float64
	longest int
}

// costTable holds the measured costs of one parallelization factor's
// macro-operations. A cost depends only on (n, op, .vv/.vx, masked, shift
// amount), so one table serves every engine of the process. Each entry is
// measured on first use and published atomically: a steady-state lookup is
// an array index, with no map, no lock and no allocation.
type costTable struct {
	n      int
	ops    [isa.OpFence + 1][2][2]atomic.Pointer[opCost] // [op][.vx][masked]
	shifts [3][2][32]atomic.Pointer[opCost]              // .vx shifts: [sll, srl, sra][masked][amount]
}

// costTables memoizes one costTable per parallelization factor.
var costTables = struct {
	mu  sync.Mutex
	byN map[int]*costTable
}{byN: make(map[int]*costTable)}

// tableFor returns the process's cost table for factor n, creating it empty
// on first use.
func tableFor(n int) *costTable {
	costTables.mu.Lock()
	defer costTables.mu.Unlock()
	t := costTables.byN[n]
	if t == nil {
		t = &costTable{n: n}
		// The memo caches a pure function of (n, cost class), so which
		// engine fills an entry first cannot change any engine's result.
		//evelint:allow simpurity -- memo of a pure function; TestCostTableOrderIndependent
		costTables.byN[n] = t
	}
	return t
}

// slot returns in's entry, or nil for an op outside the table.
func (t *costTable) slot(in *isa.Instr) *atomic.Pointer[opCost] {
	m, vx := 0, 0
	if in.Masked {
		m = 1
	}
	if in.Kind == isa.KindVX {
		vx = 1
		switch in.Op {
		case isa.OpSll:
			return &t.shifts[0][m][in.Scalar&31]
		case isa.OpSrl:
			return &t.shifts[1][m][in.Scalar&31]
		case isa.OpSra:
			return &t.shifts[2][m][in.Scalar&31]
		}
	}
	if in.Op < 0 || int(in.Op) >= len(t.ops) {
		return nil
	}
	return &t.ops[in.Op][vx][m]
}

// lookup returns the cost of one vector instruction's micro-programs under
// the watchdog budget limit. The table's entry serves only when its longest
// program fits the budget; otherwise the programs run on a fresh machine
// bounded by limit, which panics with the *uprog.CycleLimitError an engine
// measuring its own programs would raise.
func (t *costTable) lookup(in *isa.Instr, limit int) opCost {
	s := t.slot(in)
	if s != nil {
		if c := s.Load(); c != nil && c.longest <= limit {
			return *c
		}
	}
	c := t.measureFresh(in, limit)
	if s != nil {
		s.CompareAndSwap(nil, c)
	}
	return *c
}

// measureFresh measures in's cost on a new counting machine bounded by
// limit: the slow path of an entry's first measurement, and of a budget
// the entry's longest program exceeds.
func (t *costTable) measureFresh(in *isa.Instr, limit int) *opCost {
	m := uprog.NewMachine(t.n, 2)
	m.MaxCycles = limit
	c := measure(m, in)
	return &c
}

// run executes a program on the counting machine, returning its cost.
func run(m *uprog.Machine, p *uop.Program) opCost {
	before := m.EnergyCounts()
	cycles := m.CountCycles(p)
	after := m.EnergyCounts()
	for i := range after {
		after[i] -= before[i]
	}
	return opCost{cycles: cycles, energy: analytic.EnergyReadEq(after), longest: cycles}
}

// then sequences two measured program runs: a followed by b.
func then(a, b opCost) opCost {
	return opCost{cycles: a.cycles + b.cycles, energy: a.energy + b.energy, longest: max(a.longest, b.longest)}
}

// measure runs in's micro-programs on the counting machine mach and
// returns their cost.
func measure(mach *uprog.Machine, in *isa.Instr) opCost {
	// The .vx prologue stages the scalar operand into a scratch register
	// through the data_in port. It runs for every .vx op, also where its
	// cost is not charged, so the watchdog sees it in longest.
	var base opCost
	if in.Kind == isa.KindVX {
		l := mach.Layout
		base = run(mach, uprog.WriteExt(l, l.ScratchID(uprog.BroadcastScratch), false))
	}
	c := measureOp(mach, in, base)
	c.longest = max(c.longest, base.longest)
	return c
}

// measureOp runs in's own micro-program after the prologue whose cost is
// base. Costs do not depend on which architectural registers are named, so
// results and operands land in fixed slots.
func measureOp(mach *uprog.Machine, in *isa.Instr, base opCost) opCost {
	l := mach.Layout
	const d, a, b = 3, 1, 2
	m := in.Masked
	vx := in.Kind == isa.KindVX
	switch in.Op {
	case isa.OpAdd:
		return then(base, run(mach, uprog.Add(l, d, a, b, m)))
	case isa.OpSub:
		return then(base, run(mach, uprog.Sub(l, d, a, b, m)))
	case isa.OpRSub:
		return then(base, run(mach, uprog.RSub(l, d, a, b, m)))
	case isa.OpAnd:
		return then(base, run(mach, uprog.Logic(l, uop.SrcAnd, d, a, b, m)))
	case isa.OpOr:
		return then(base, run(mach, uprog.Logic(l, uop.SrcOr, d, a, b, m)))
	case isa.OpXor:
		return then(base, run(mach, uprog.Logic(l, uop.SrcXor, d, a, b, m)))
	case isa.OpSAdd:
		return then(base, run(mach, uprog.SatAdd(l, d, a, b, m)))
	case isa.OpSAddU:
		return then(base, run(mach, uprog.SatAddU(l, d, a, b, m)))
	case isa.OpSSub:
		return then(base, run(mach, uprog.SatSub(l, d, a, b, m)))
	case isa.OpSSubU:
		return then(base, run(mach, uprog.SatSubU(l, d, a, b, m)))
	case isa.OpMin:
		return then(base, run(mach, uprog.MinMax(l, false, true, d, a, b, m)))
	case isa.OpMax:
		return then(base, run(mach, uprog.MinMax(l, true, true, d, a, b, m)))
	case isa.OpMinU:
		return then(base, run(mach, uprog.MinMax(l, false, false, d, a, b, m)))
	case isa.OpMaxU:
		return then(base, run(mach, uprog.MinMax(l, true, false, d, a, b, m)))
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		kind := uprog.ShSLL
		switch in.Op {
		case isa.OpSrl:
			kind = uprog.ShSRL
		case isa.OpSra:
			kind = uprog.ShSRA
		}
		if vx {
			// The VSU resolves the scalar amount at decode: no broadcast.
			return run(mach, uprog.ShiftImm(l, kind, d, a, int(in.Scalar&31), m))
		}
		return run(mach, uprog.ShiftVV(l, kind, d, a, b, m))
	case isa.OpMerge:
		return run(mach, uprog.Merge(l, d, a, b))
	case isa.OpMv:
		if vx {
			return run(mach, uprog.WriteExt(l, d, m)) // vmv.v.x is a pure broadcast
		}
		return run(mach, uprog.Copy(l, d, a, m))
	case isa.OpVId:
		// Element indices stream in through the data_in port like a load's
		// writeback: one wr per segment.
		return run(mach, uprog.WriteExt(l, d, m))
	case isa.OpMul:
		return then(base, run(mach, uprog.Mul(l, d, a, b, m, false)))
	case isa.OpMacc:
		return then(base, run(mach, uprog.Mul(l, d, a, b, m, true)))
	case isa.OpMulH:
		return then(base, run(mach, uprog.MulH(l, d, a, b, m)))
	case isa.OpDiv:
		return then(base, run(mach, uprog.DivRem(l, uprog.DivS, d, a, b, m)))
	case isa.OpDivU:
		return then(base, run(mach, uprog.DivRem(l, uprog.DivU, d, a, b, m)))
	case isa.OpRem:
		return then(base, run(mach, uprog.DivRem(l, uprog.RemS, d, a, b, m)))
	case isa.OpRemU:
		return then(base, run(mach, uprog.DivRem(l, uprog.RemU, d, a, b, m)))
	case isa.OpMSeq:
		return then(base, run(mach, uprog.Compare(l, uprog.CmpEq, d, a, b, m)))
	case isa.OpMSne:
		return then(base, run(mach, uprog.Compare(l, uprog.CmpNe, d, a, b, m)))
	case isa.OpMSlt:
		return then(base, run(mach, uprog.Compare(l, uprog.CmpLt, d, a, b, m)))
	case isa.OpMSltU:
		return then(base, run(mach, uprog.Compare(l, uprog.CmpLtu, d, a, b, m)))
	case isa.OpMSle:
		return then(base, run(mach, uprog.Compare(l, uprog.CmpLe, d, a, b, m)))
	case isa.OpMSleU:
		return then(base, run(mach, uprog.Compare(l, uprog.CmpLeu, d, a, b, m)))
	case isa.OpMSgt:
		return then(base, run(mach, uprog.Compare(l, uprog.CmpGt, d, a, b, m)))
	case isa.OpMSgtU:
		return then(base, run(mach, uprog.Compare(l, uprog.CmpGtu, d, a, b, m)))
	case isa.OpMvSX:
		// Write one element's segments through data_in.
		return opCost{cycles: 1 + l.Segs, energy: float64(l.Segs)}
	case isa.OpMvXS:
		// Stream one element's segments out.
		return opCost{cycles: 1 + l.Segs, energy: float64(l.Segs)}
	case isa.OpSetVL, isa.OpFence:
		return opCost{cycles: 1}
	default:
		panic(fmt.Sprintf("eve: no micro-program cost for %v", in.Op))
	}
}
