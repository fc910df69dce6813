package eve

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/uop"
	"repro/internal/uprog"
)

// newEngineOn builds an engine whose cost lookups go to table t instead of
// the process's shared table for cfg.N.
func newEngineOn(cfg Config, llc mem.Level, t *costTable) *Engine {
	e := New(cfg, llc)
	e.cost = t
	return e
}

// costKey identifies a macro-operation cost class.
type costKey struct {
	op     isa.Op
	vx     bool
	masked bool
	imm    uint32 // shift amounts make distinct micro-programs
}

// cellCostModel is the per-engine cost model the process-wide costTable
// replaced, kept as its oracle: one counting machine per engine, watchdog
// budget and all, measuring each cost class on first use into a map.
type cellCostModel struct {
	layout uprog.Layout
	mach   *uprog.Machine
	cache  map[costKey]opCost
}

func newCellCostModel(n, maxUProgCycles int) *cellCostModel {
	m := uprog.NewMachine(n, 2)
	m.MaxCycles = maxUProgCycles
	return &cellCostModel{layout: m.Layout, mach: m, cache: make(map[costKey]opCost)}
}

// run executes a program on the counting machine, returning its cost.
func (c *cellCostModel) run(p *uop.Program) opCost {
	before := c.mach.EnergyCounts()
	cycles := c.mach.CountCycles(p)
	after := c.mach.EnergyCounts()
	for i := range after {
		after[i] -= before[i]
	}
	return opCost{cycles: cycles, energy: analytic.EnergyReadEq(after)}
}

// broadcastCost is the cost of staging a scalar operand into a scratch
// register through the data_in port (the .vx prologue).
func (c *cellCostModel) broadcastCost() opCost {
	return c.run(uprog.WriteExt(c.layout, c.layout.ScratchID(uprog.BroadcastScratch), false))
}

func (c *cellCostModel) lookup(in *isa.Instr) opCost {
	key := costKey{op: in.Op, vx: in.Kind == isa.KindVX, masked: in.Masked}
	switch in.Op {
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		if in.Kind == isa.KindVX {
			key.imm = in.Scalar & 31
		}
	}
	if v, ok := c.cache[key]; ok {
		return v
	}
	v := c.measure(in, key)
	c.cache[key] = v
	return v
}

func (c *cellCostModel) measure(in *isa.Instr, key costKey) opCost {
	l := c.layout
	// Generic register ids: results/operands land in fixed slots; costs do
	// not depend on which architectural registers are named.
	const d, a, b = 3, 1, 2
	m := key.masked

	var base opCost
	if key.vx {
		base = c.broadcastCost()
	}
	add := func(oc opCost) opCost {
		return opCost{cycles: base.cycles + oc.cycles, energy: base.energy + oc.energy}
	}
	switch in.Op {
	case isa.OpAdd:
		return add(c.run(uprog.Add(l, d, a, b, m)))
	case isa.OpSub:
		return add(c.run(uprog.Sub(l, d, a, b, m)))
	case isa.OpRSub:
		return add(c.run(uprog.RSub(l, d, a, b, m)))
	case isa.OpAnd:
		return add(c.run(uprog.Logic(l, uop.SrcAnd, d, a, b, m)))
	case isa.OpOr:
		return add(c.run(uprog.Logic(l, uop.SrcOr, d, a, b, m)))
	case isa.OpXor:
		return add(c.run(uprog.Logic(l, uop.SrcXor, d, a, b, m)))
	case isa.OpSAdd:
		return add(c.run(uprog.SatAdd(l, d, a, b, m)))
	case isa.OpSAddU:
		return add(c.run(uprog.SatAddU(l, d, a, b, m)))
	case isa.OpSSub:
		return add(c.run(uprog.SatSub(l, d, a, b, m)))
	case isa.OpSSubU:
		return add(c.run(uprog.SatSubU(l, d, a, b, m)))
	case isa.OpMin:
		return add(c.run(uprog.MinMax(l, false, true, d, a, b, m)))
	case isa.OpMax:
		return add(c.run(uprog.MinMax(l, true, true, d, a, b, m)))
	case isa.OpMinU:
		return add(c.run(uprog.MinMax(l, false, false, d, a, b, m)))
	case isa.OpMaxU:
		return add(c.run(uprog.MinMax(l, true, false, d, a, b, m)))
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		kind := uprog.ShSLL
		switch in.Op {
		case isa.OpSrl:
			kind = uprog.ShSRL
		case isa.OpSra:
			kind = uprog.ShSRA
		}
		if key.vx {
			// The VSU resolves the scalar amount at decode: no broadcast.
			return c.run(uprog.ShiftImm(l, kind, d, a, int(key.imm), m))
		}
		return c.run(uprog.ShiftVV(l, kind, d, a, b, m))
	case isa.OpMerge:
		return add(c.run(uprog.Merge(l, d, a, b)))
	case isa.OpMv:
		if key.vx {
			return c.run(uprog.WriteExt(l, d, m)) // vmv.v.x is a pure broadcast
		}
		return c.run(uprog.Copy(l, d, a, m))
	case isa.OpVId:
		// Element indices stream in through the data_in port like a load's
		// writeback: one wr per segment.
		return c.run(uprog.WriteExt(l, d, m))
	case isa.OpMul:
		return add(c.run(uprog.Mul(l, d, a, b, m, false)))
	case isa.OpMacc:
		return add(c.run(uprog.Mul(l, d, a, b, m, true)))
	case isa.OpMulH:
		return add(c.run(uprog.MulH(l, d, a, b, m)))
	case isa.OpDiv:
		return add(c.run(uprog.DivRem(l, uprog.DivS, d, a, b, m)))
	case isa.OpDivU:
		return add(c.run(uprog.DivRem(l, uprog.DivU, d, a, b, m)))
	case isa.OpRem:
		return add(c.run(uprog.DivRem(l, uprog.RemS, d, a, b, m)))
	case isa.OpRemU:
		return add(c.run(uprog.DivRem(l, uprog.RemU, d, a, b, m)))
	case isa.OpMSeq:
		return add(c.run(uprog.Compare(l, uprog.CmpEq, d, a, b, m)))
	case isa.OpMSne:
		return add(c.run(uprog.Compare(l, uprog.CmpNe, d, a, b, m)))
	case isa.OpMSlt:
		return add(c.run(uprog.Compare(l, uprog.CmpLt, d, a, b, m)))
	case isa.OpMSltU:
		return add(c.run(uprog.Compare(l, uprog.CmpLtu, d, a, b, m)))
	case isa.OpMSle:
		return add(c.run(uprog.Compare(l, uprog.CmpLe, d, a, b, m)))
	case isa.OpMSleU:
		return add(c.run(uprog.Compare(l, uprog.CmpLeu, d, a, b, m)))
	case isa.OpMSgt:
		return add(c.run(uprog.Compare(l, uprog.CmpGt, d, a, b, m)))
	case isa.OpMSgtU:
		return add(c.run(uprog.Compare(l, uprog.CmpGtu, d, a, b, m)))
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
