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
	cycles, counts := m.Measure(p)
	return opCost{cycles: cycles, energy: analytic.EnergyReadEq(counts), longest: cycles}
}

// then sequences two measured program runs: a followed by b.
func then(a, b opCost) opCost {
	return opCost{cycles: a.cycles + b.cycles, energy: a.energy + b.energy, longest: max(a.longest, b.longest)}
}

// measure runs in's micro-programs (Decoder.Decode) on the counting machine
// mach and returns their cost, or in's port cost for an op that runs no
// program. Costs do not depend on which architectural registers are named,
// so results and operands land in fixed slots.
func measure(mach *uprog.Machine, in *isa.Instr) opCost {
	l := mach.Layout
	const d, a, b = 3, 1, 2
	dc := NewDecoder(l)
	v := dc.Decode(in, d, a, b)
	// The .vx prologue stages the scalar operand into a scratch register
	// through the data_in port. It runs first for every .vx op, also where
	// the decode resolves the scalar itself, so that the watchdog sees it
	// in longest and names it if it trips. It is charged where the decode
	// stages it.
	var c, pro opCost
	if in.Kind == isa.KindVX {
		pro = run(mach, dc.prologue)
		if v.Prologue != nil {
			c = pro
		}
	}
	switch in.Op {
	case isa.OpVId:
		// Element indices stream in through the data_in port like a load's
		// writeback: one wr per segment.
		c = run(mach, uprog.WriteExt(l, d, in.Masked))
	case isa.OpMvSX, isa.OpMvXS:
		// One element's segments move through data_in or data_out.
		c = opCost{cycles: 1 + l.Segs, energy: float64(l.Segs)}
	case isa.OpSetVL, isa.OpFence:
		c = opCost{cycles: 1}
	default:
		if v.Body == nil {
			panic(fmt.Sprintf("eve: no micro-program cost for %v", in.Op))
		}
		c = then(c, run(mach, v.Body))
	}
	c.longest = max(c.longest, pro.longest)
	return c
}
