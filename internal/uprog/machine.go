package uprog

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/circuits"
	"repro/internal/sram"
	"repro/internal/uop"
)

// DefaultMaxCycles bounds a single micro-program run when the machine's
// MaxCycles field is zero; exceeding the bound indicates a sequencing bug
// (runaway loop) or a fault-corrupted sequencer.
const DefaultMaxCycles = 1 << 22

// CycleLimitError reports a micro-program exceeding its cycle budget. The
// machine panics with a *CycleLimitError so the abort unwinds through the
// circuit stack like any other invariant violation; sim.Run recovers it
// into a typed SimError, making a watchdog trip a per-cell diagnosis rather
// than a dead sweep.
type CycleLimitError struct {
	Program string // micro-program name
	PC      int    // program counter at abort
	Limit   int    // cycle budget that was exceeded
}

func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("uprog: %s exceeded %d cycles (runaway loop at pc %d)",
		e.Program, e.Limit, e.PC)
}

// Machine is the execution half of a VSU bound to one circuit stack: the
// micro-program counter, the 12 shared counters with their zero and
// binary-decade flags, and the tuple execution loop.
//
// Within a tuple the paper executes counter, arithmetic, then control μop.
// Row references are resolved against the counter iteration state at the
// start of the cycle (a register read in the same cycle it is written), so
// a decr riding in the same tuple as a blc does not perturb the blc's
// addressing — matching Fig 4's listings.
//
// A Machine is single-threaded state (counters, flags, energy tallies) and
// is not safe for concurrent use. There is deliberately no package-level
// machine or memoized latency table: every EVE engine instance owns its
// own Machine and cost cache, which is what keeps concurrent simulations
// (internal/sweep) race-free.
type Machine struct {
	Layout Layout
	Stack  *circuits.Stack

	// MaxCycles is the per-run watchdog budget; zero selects
	// DefaultMaxCycles. Exceeding it panics with a *CycleLimitError.
	MaxCycles int

	vals   [uop.NumCounters]int
	inits  [uop.NumCounters]int
	iters  [uop.NumCounters]int
	zeroF  [uop.NumCounters]bool
	decF   [uop.NumCounters]bool
	cycles uint64
	energy [uop.NumEnergyClasses]uint64
}

// EnergyCounts reports cumulative arithmetic μops per energy class across
// all runs, the input to the §VI-B array-energy model.
func (m *Machine) EnergyCounts() [uop.NumEnergyClasses]uint64 { return m.energy }

// NewMachine builds a machine for parallelization factor n with capacity for
// elems elements (elems column groups). The constant rows are initialized.
func NewMachine(n, elems int) *Machine {
	l := NewLayout(n)
	arr := sram.New(l.Rows(), elems*n)
	st := circuits.NewStack(arr, n)
	m := &Machine{Layout: l, Stack: st}
	arr.Write(l.OneRow(), bitmat.LSBMask(arr.Cols(), n))
	arr.Write(l.SignRow(), bitmat.MSBMask(arr.Cols(), n))
	return m
}

// Elems reports how many elements (column groups) the machine holds.
func (m *Machine) Elems() int { return m.Stack.Array().Cols() / m.Layout.N }

// Cycles reports the cumulative tuples executed across all Run calls.
func (m *Machine) Cycles() uint64 { return m.cycles }

// StoreElements writes src into register reg's elements first,
// first+1, ... through the data port (not a modeled array access).
func (m *Machine) StoreElements(reg, first int, src []uint32) {
	m.Stack.Array().WriteElements(m.Layout.RegRow(reg, 0), m.Layout.N, first, src)
}

// LoadElements reads register reg's elements first, first+1, ... into dst
// through the data port.
func (m *Machine) LoadElements(reg, first int, dst []uint32) {
	m.Stack.Array().ReadElements(m.Layout.RegRow(reg, 0), m.Layout.N, first, dst)
}

// StoreElement writes a 32-bit value into register reg, element elem.
func (m *Machine) StoreElement(reg, elem int, v uint32) { m.StoreElements(reg, elem, []uint32{v}) }

// LoadElement reads the 32-bit value of register reg, element elem.
func (m *Machine) LoadElement(reg, elem int) uint32 {
	var v [1]uint32
	m.LoadElements(reg, elem, v[:])
	return v[0]
}

// SaveRegister snapshots register reg's Layout.Segs rows into dst through
// the data port.
func (m *Machine) SaveRegister(reg int, dst []bitmat.Row) {
	m.Stack.Array().SaveRows(m.Layout.RegRow(reg, 0), dst[:m.Layout.Segs])
}

// RestoreTail writes register reg's elements from first on back from a
// SaveRegister snapshot, leaving elements below first as they are.
func (m *Machine) RestoreTail(reg, first int, src []bitmat.Row) {
	m.Stack.Array().RestoreColumns(m.Layout.RegRow(reg, 0), first*m.Layout.N, src[:m.Layout.Segs])
}

// SetActive bounds the datapath of later Runs to the column groups of
// elements [0, elems), rounded up to whole storage words
// (circuits.Stack.SetActive): μops compute and write only those columns,
// and the rest of every row and latch keeps what it holds. Accesses still
// tick and count, and armed bit flips fire, exactly as over the whole array.
// The default is every element; CountCycles never touches the datapath.
func (m *Machine) SetActive(elems int) {
	if elems < 0 || elems > m.Elems() {
		panic(fmt.Sprintf("uprog: active elements %d out of range [0,%d]", elems, m.Elems()))
	}
	m.Stack.SetActive(bitmat.Words(elems * m.Layout.N))
}

// Run executes the micro-program to completion, returning the cycle count
// (tuples executed). env supplies data_in rows and collects data_out rows;
// it may be nil for programs that use neither.
func (m *Machine) Run(p *uop.Program, env *circuits.Env) int {
	return m.exec(p, env, true)
}

// CountCycles executes only the counter and control μops of the program,
// skipping the datapath, and returns the cycle count. Because micro-programs
// are data-independent this equals Run's cycle count; the EVE timing model
// uses it to cost macro-operations without touching an array.
func (m *Machine) CountCycles(p *uop.Program) int {
	return m.exec(p, nil, false)
}

func (m *Machine) exec(p *uop.Program, env *circuits.Env, datapath bool) int {
	limit := m.MaxCycles
	if limit <= 0 {
		limit = DefaultMaxCycles
	}
	cycles := 0
	pc := 0
	for pc < len(p.Tuples) {
		if cycles >= limit {
			panic(&CycleLimitError{Program: p.Name, PC: pc, Limit: limit})
		}
		t := &p.Tuples[pc]
		cycles++

		// Arithmetic μop, addressed with start-of-cycle counter state.
		m.energy[uop.EnergyClassOf(&t.Arith)]++
		if datapath && t.Arith.Kind != uop.ANone {
			rowA := t.Arith.A.Resolve(&m.iters)
			rowB := t.Arith.B.Resolve(&m.iters)
			rowD := t.Arith.DstR.Resolve(&m.iters)
			ext := t.Arith.ExtR.Resolve(&m.iters)
			m.Stack.Exec(&t.Arith, rowA, rowB, rowD, ext, env)
		}

		// Counter μop.
		switch t.Ctr.Kind {
		case uop.CNone:
		case uop.CInit:
			c := t.Ctr.Cnt
			m.vals[c], m.inits[c], m.iters[c] = t.Ctr.Val, t.Ctr.Val, 0
			m.zeroF[c], m.decF[c] = false, false
		case uop.CDecr:
			m.decr(t.Ctr.Cnt)
		case uop.CIncr:
			c := t.Ctr.Cnt
			m.vals[c]++
			m.iters[c]--
		default:
			panic(fmt.Sprintf("uprog: bad counter μop kind %d", t.Ctr.Kind))
		}

		// Control μop.
		next := pc + 1
		switch t.Ctl.Kind {
		case uop.LNone:
		case uop.LJmp:
			next = t.Ctl.Target
		case uop.LRet:
			m.cycles += uint64(cycles)
			return cycles
		case uop.LBnz:
			c := t.Ctl.Cnt
			if !m.zeroF[c] {
				next = t.Ctl.Target
			} else {
				m.zeroF[c] = false // flag consumed at the loop exit
			}
		case uop.LBnd:
			c := t.Ctl.Cnt
			if m.decF[c] {
				m.decF[c] = false // flag consumed when the branch is taken
				next = t.Ctl.Target
			}
		default:
			panic(fmt.Sprintf("uprog: bad control μop kind %d", t.Ctl.Kind))
		}
		pc = next
	}
	m.cycles += uint64(cycles)
	return cycles
}

// decr implements the paper's counter semantics: decrementing to zero sets
// the zero flag and resets the counter to its initial value; reaching a
// power of two sets the binary-decade flag.
func (m *Machine) decr(c uop.Counter) {
	m.vals[c]--
	m.iters[c]++
	if m.vals[c] <= 0 {
		m.zeroF[c] = true
		m.vals[c] = m.inits[c]
		m.iters[c] = 0
	}
	if v := m.vals[c]; v > 0 && v&(v-1) == 0 {
		m.decF[c] = true
	}
}
