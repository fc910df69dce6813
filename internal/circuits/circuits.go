// Package circuits models EVE's peripheral circuit stacks (paper §III): the
// logic layers added around a bit-line-compute-capable SRAM that turn it into
// a vector execution unit. A Stack is configured at design time with a
// parallelization factor n (EVE-1 bit-serial, EVE-32 bit-parallel, EVE-n
// bit-hybrid): every n adjacent columns form a segment group processing one
// n-bit segment of a 32-bit element per cycle.
//
// The layers modeled, following Fig 3(c)-(e):
//
//   - bus logic: source selection for writebacks (the Src multiplexer)
//   - XOR/XNOR logic: derives xor/xnor from the sense amps' nand and or
//   - add logic: an n-bit Manchester carry chain per segment group, with the
//     inter-segment carry held in a latch (the XRegister in EVE-1, a spare
//     shifter flip-flop in EVE-n)
//   - XRegister: per-column flip-flops configured as a right-shift register
//     spanning the group (n>1), used by multiplication and mask extraction
//   - mask logic: a per-column latch gating writebacks and shifts
//   - constant shifter: a loadable register supporting conditional one-bit
//     shifts/rotates within the group (n>1)
//   - spare shifter: carries bits across segment groups during multi-segment
//     shifts, and holds the add carry (n>1)
//
// The stack executes one arithmetic μop (internal/uop) per cycle against its
// SRAM array. Sequencing (loops, counters) lives in internal/uprog.
package circuits

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/sram"
	"repro/internal/uop"
)

// Env supplies the data_in port contents and collects data_out traffic for a
// μop sequence. ExtRows are indexed by uop.ExtRef; Out accumulates every row
// streamed out through DstDataOut in order, as wide as the array, with the
// columns beyond the stack's active prefix zero.
type Env struct {
	ExtRows []bitmat.Row
	Out     []bitmat.Row
}

// Ext returns external row i, panicking on out-of-range access (a μprogram
// bug, not a data condition).
func (e *Env) Ext(i int) bitmat.Row {
	if e == nil || i < 0 || i >= len(e.ExtRows) {
		panic(fmt.Sprintf("circuits: data_in row %d unavailable", i))
	}
	return e.ExtRows[i]
}

// Stack is the peripheral circuit stack of one EVE SRAM array.
type Stack struct {
	arr  *sram.Array
	n    int
	cols int

	// The stack's rows as μops use them: views of full's over the active
	// prefix (SetActive).
	rows
	full rows

	cycles uint64 // arithmetic μops executed

	// Fault-injection state (internal/faults): bit-line computes whose
	// operand-B wordline activation is armed to fail, keyed by the stack's
	// 0-based blc sequence number.
	blcSeq  uint64
	wlDrops map[uint64]struct{}
}

// rows are the stack's per-column state.
type rows struct {
	// XOR/XNOR layer outputs, valid while the sense amps hold a blc result.
	xorV, xnorV bitmat.Row

	// Add logic outputs: sum is combinational from the current blc result and
	// the carry latch; pendingCout is the group carry-out awaiting commit by
	// a writeback with Src = add.
	sum         bitmat.Row
	pendingCout bitmat.Row // at group LSB positions

	// Latches.
	carry  bitmat.Row // inter-segment add carry, one bit per group at its LSB column
	xreg   bitmat.Row // XRegister contents
	maskL  bitmat.Row // mask latches, one bit per column
	cshift bitmat.Row // constant shifter contents
	spare  bitmat.Row // spare shifter inter-segment bit, per group at its LSB column

	// Precomputed geometry mask: each group's LSB column.
	lsbMask bitmat.Row

	// Scratch rows, reused across μops to avoid allocation.
	t0, t1 bitmat.Row
}

func (r *rows) prefix(words int) rows {
	return rows{
		xorV: r.xorV.Prefix(words), xnorV: r.xnorV.Prefix(words),
		sum: r.sum.Prefix(words), pendingCout: r.pendingCout.Prefix(words),
		carry: r.carry.Prefix(words), xreg: r.xreg.Prefix(words),
		maskL: r.maskL.Prefix(words), cshift: r.cshift.Prefix(words),
		spare: r.spare.Prefix(words), lsbMask: r.lsbMask.Prefix(words),
		t0: r.t0.Prefix(words), t1: r.t1.Prefix(words),
	}
}

// NewStack builds the circuit stack for the given array and parallelization
// factor n. n must divide both 32 and the array width.
func NewStack(arr *sram.Array, n int) *Stack {
	cols := arr.Cols()
	if n <= 0 || 32%n != 0 {
		panic(fmt.Sprintf("circuits: parallelization factor %d must divide 32", n))
	}
	if cols%n != 0 {
		panic(fmt.Sprintf("circuits: array width %d not a multiple of n=%d", cols, n))
	}
	s := &Stack{arr: arr, n: n, cols: cols, full: rows{
		xorV: bitmat.NewRow(cols), xnorV: bitmat.NewRow(cols),
		sum: bitmat.NewRow(cols), pendingCout: bitmat.NewRow(cols),
		carry: bitmat.NewRow(cols), xreg: bitmat.NewRow(cols),
		maskL: bitmat.NewRow(cols), cshift: bitmat.NewRow(cols),
		spare:   bitmat.NewRow(cols),
		lsbMask: bitmat.LSBMask(cols, n),
		t0:      bitmat.NewRow(cols), t1: bitmat.NewRow(cols),
	}}
	s.Reset()
	return s
}

// SetActive bounds every later μop to the active prefix: the first words
// storage words of each row, columns [0, 64·words). The array's modeled
// accesses (sram.Array.SetActive), the latches, the sense-derived rows and
// the data_in rows are all used through that prefix; columns beyond it keep
// whatever they hold. The blc sequence and wordline drops are unaffected.
// A new stack's prefix is every word.
func (s *Stack) SetActive(words int) {
	s.arr.SetActive(words)
	s.rows = s.full.prefix(words)
}

// N reports the parallelization factor.
func (s *Stack) N() int { return s.n }

// Array returns the underlying SRAM array.
func (s *Stack) Array() *sram.Array { return s.arr }

// Cycles reports how many arithmetic μops the stack has executed.
func (s *Stack) Cycles() uint64 { return s.cycles }

// ArmWordlineDrop arms a dropped wordline activation: on the stack's seq-th
// bit-line compute (0-based, counted by BLCs since construction or Reset),
// operand B's wordline fails to activate, so the sense amplifiers observe
// row A alone (and = or = A, as in the self-compute idiom). Each armed drop
// fires at most once.
func (s *Stack) ArmWordlineDrop(seq uint64) {
	if s.wlDrops == nil {
		s.wlDrops = make(map[uint64]struct{})
	}
	s.wlDrops[seq] = struct{}{}
}

// BLCs reports the number of bit-line computes the stack has issued since
// construction or Reset — the sequence space ArmWordlineDrop addresses.
func (s *Stack) BLCs() uint64 { return s.blcSeq }

// SkipBLCs advances the blc sequence past n bit-line computes that are not
// performed (the array's access sequence is advanced separately, with
// sram.Array.Skip). It panics if an armed wordline drop would fire among
// them, since that fault would be lost.
func (s *Stack) SkipBLCs(n uint64) {
	hit := false
	for seq := range s.wlDrops {
		hit = hit || seq >= s.blcSeq && seq-s.blcSeq < n
	}
	if hit {
		panic(fmt.Sprintf("circuits: skipping bit-line computes [%d,%d) would step over an armed wordline drop", s.blcSeq, s.blcSeq+n))
	}
	s.blcSeq += n
}

// Mask returns the current mask latch contents (live; do not mutate).
func (s *Stack) Mask() bitmat.Row { return s.full.maskL }

// XReg returns the current XRegister contents (live; do not mutate).
func (s *Stack) XReg() bitmat.Row { return s.full.xreg }

// CShift returns the current constant shifter contents (live; do not mutate).
func (s *Stack) CShift() bitmat.Row { return s.full.cshift }

// Reset returns the stack to the state NewStack leaves, keeping its
// storage: every latch and derived row clear except the mask latches,
// which power up enabled so unconditional operations need no setup; the
// μop and blc sequences at zero; no wordline drop armed; and every word
// active, in the array too (SetActive). The SRAM cells are untouched.
func (s *Stack) Reset() {
	f := &s.full
	for _, r := range [...]bitmat.Row{f.xorV, f.xnorV, f.sum, f.pendingCout,
		f.carry, f.xreg, f.cshift, f.spare, f.t0, f.t1} {
		r.Zero()
	}
	f.maskL.Fill()
	s.cycles, s.blcSeq = 0, 0
	clear(s.wlDrops)
	s.SetActive(bitmat.Words(s.cols))
}

// Exec executes one arithmetic μop with resolved row/ext indices. rowA, rowB
// and rowD are the resolved wordlines for op.A, op.B and op.DstR; extIdx is
// the resolved data_in index. The sequencer (internal/uprog) performs the
// resolution; tests may call Exec directly with literal rows.
func (s *Stack) Exec(op *uop.Arith, rowA, rowB, rowD, extIdx int, env *Env) {
	s.cycles++
	switch op.Kind {
	case uop.ANone:
		// Idle slot.
	case uop.ARead:
		s.read(op, rowA, env)
	case uop.AWrite:
		val := s.selectSrc(op.Src, extIdx, env)
		if op.Masked {
			s.arr.WriteMasked(rowA, val, s.maskL)
		} else {
			s.arr.Write(rowA, val)
		}
	case uop.ABLC:
		s.blc(rowA, rowB)
	case uop.AWriteback:
		s.writeback(op, rowD, extIdx, env)
	case uop.ALShift:
		s.shiftLeft(op.Masked)
	case uop.ARShift:
		s.shiftRight(op.Masked)
	case uop.ALRotate:
		s.rotateLeft(op.Masked)
	case uop.ARRotate:
		s.rotateRight(op.Masked)
	case uop.AMaskShift:
		s.maskShift()
	default:
		panic(fmt.Sprintf("circuits: unknown arith μop kind %v", op.Kind))
	}
}

// read senses a wordline straight into its destination latch; only data_out
// takes an owned copy, since the environment keeps every streamed row.
func (s *Stack) read(op *uop.Arith, row int, env *Env) {
	switch op.Dst {
	case uop.DstCShift:
		s.arr.ReadInto(row, s.cshift)
	case uop.DstXReg:
		s.arr.ReadInto(row, s.xreg)
	case uop.DstMask:
		s.arr.ReadInto(row, s.maskL)
		s.loadMask(s.maskL, op.Spread)
	case uop.DstDataOut:
		v := s.arr.Read(row)
		if env != nil {
			env.Out = append(env.Out, v)
		}
	default:
		panic(fmt.Sprintf("circuits: rd cannot target %v", op.Dst))
	}
}

// blc performs the bit-line compute and drives the XOR/XNOR and add layers
// combinationally from the sense outputs.
func (s *Stack) blc(ra, rb int) {
	if s.wlDrops != nil {
		if _, drop := s.wlDrops[s.blcSeq]; drop {
			delete(s.wlDrops, s.blcSeq)
			rb = ra
		}
	}
	s.blcSeq++
	s.arr.BitLineCompute(ra, rb)
	// xor = nand AND or; xnor = its complement (§III: "the XOR/XNOR logic
	// uses the nand and or values").
	s.xorV.And(s.arr.Nand(), s.arr.Or())
	s.xnorV.Not(s.xorV)
	s.computeAdd(s.xorV, s.arr.And())
}

// computeAdd evaluates the Manchester carry chain for every segment group:
// propagate p, generate g, carry-in from the inter-segment carry latch. The
// resulting carry-out is staged in pendingCout and only committed to the
// latch by a writeback with Src = add.
func (s *Stack) computeAdd(p, g bitmat.Row) {
	s.sum.GroupAdd(s.pendingCout, p, g, s.carry, s.n)
}

// selectSrc implements the bus logic: pick the value a writeback commits.
func (s *Stack) selectSrc(src uop.Src, extIdx int, env *Env) bitmat.Row {
	switch src {
	case uop.SrcAnd:
		return s.arr.And()
	case uop.SrcNand:
		return s.arr.Nand()
	case uop.SrcOr:
		return s.arr.Or()
	case uop.SrcNor:
		return s.arr.Nor()
	case uop.SrcXor:
		return s.xorV
	case uop.SrcXnor:
		return s.xnorV
	case uop.SrcAdd:
		return s.sum
	case uop.SrcCShift:
		return s.cshift
	case uop.SrcXReg:
		return s.xreg
	case uop.SrcMask:
		return s.maskL
	case uop.SrcZero:
		s.t1.Zero()
		return s.t1
	case uop.SrcOnes:
		s.t1.Fill()
		return s.t1
	case uop.SrcExt:
		return s.arr.Active(env.Ext(extIdx))
	default:
		panic(fmt.Sprintf("circuits: invalid writeback source %v", src))
	}
}

func (s *Stack) writeback(op *uop.Arith, rowD, extIdx int, env *Env) {
	val := s.selectSrc(op.Src, extIdx, env)
	switch op.Dst {
	case uop.DstRow:
		if op.Masked {
			s.arr.WriteMasked(rowD, val, s.maskL)
		} else {
			s.arr.Write(rowD, val)
		}
	case uop.DstXReg:
		s.xreg.CopyFrom(val)
	case uop.DstMask:
		s.loadMask(val, op.Spread)
	case uop.DstCShift:
		s.cshift.CopyFrom(val)
	case uop.DstSpare:
		s.t0.And(val, s.lsbMask)
		s.spare.CopyFrom(s.t0)
	case uop.DstCarry:
		s.t0.And(val, s.lsbMask)
		s.carry.CopyFrom(s.t0)
	case uop.DstDataOut:
		if env != nil {
			out := bitmat.NewRow(s.cols)
			s.arr.Active(out).CopyFrom(val)
			env.Out = append(env.Out, out)
		}
	default:
		panic(fmt.Sprintf("circuits: invalid writeback destination %v", op.Dst))
	}
	// Committing an add result advances the inter-segment carry; predicated
	// groups keep their previous carry (their writes are suppressed anyway).
	if op.Src == uop.SrcAdd && op.Dst == uop.DstRow {
		if op.Masked {
			s.t0.And(s.maskL, s.lsbMask)
			s.carry.Mux(s.t0, s.pendingCout, s.carry)
		} else {
			s.carry.CopyFrom(s.pendingCout)
		}
	}
}

// loadMask loads the mask latches from val, optionally broadcasting each
// group's LSB or MSB column value to the whole group (§III-C: "the mask can
// be set to the XRegister value of either the most-significant column or the
// least-significant column of the segment").
func (s *Stack) loadMask(val bitmat.Row, sp uop.Spread) {
	switch sp {
	case uop.SpreadNone:
		s.maskL.CopyFrom(val)
	case uop.SpreadLSB:
		s.maskL.SpreadLSB(val, s.n)
	case uop.SpreadMSB:
		s.maskL.SpreadMSB(val, s.n)
	}
}

// shiftLeft shifts the constant shifter left by one bit within each enabled
// group (§III-B: a group participates when its mask is enabled; unmasked
// shifts apply to every group). The bit leaving the group's MSB column
// enters the spare shifter and the bit stored in the spare shifter enters at
// the LSB column, so repeated passes over consecutive segments implement a
// full-element shift (§III-C).
func (s *Stack) shiftLeft(masked bool) { s.cshift.ShiftGroupsLeft(s.spare, s.maskL, s.n, masked) }

// shiftRight is the mirror of shiftLeft: the bit leaving the LSB column is
// captured by the spare shifter and the spare bit enters at the MSB column.
func (s *Stack) shiftRight(masked bool) { s.cshift.ShiftGroupsRight(s.spare, s.maskL, s.n, masked) }

// rotateLeft rotates the constant shifter left by one bit within each enabled
// group (the group MSB wraps to its own LSB).
func (s *Stack) rotateLeft(masked bool) { s.cshift.RotateGroupsLeft(s.maskL, s.n, masked) }

// rotateRight rotates the constant shifter right by one bit within each
// enabled group.
func (s *Stack) rotateRight(masked bool) { s.cshift.RotateGroupsRight(s.maskL, s.n, masked) }

// maskShift shifts the XRegister right by one bit within each group, zero
// filling the MSB (Table II's m_shft). Multiplication walks the multiplier
// segment one bit at a time with this μop.
func (s *Stack) maskShift() { s.xreg.ShiftGroupsRightZero(s.n) }
