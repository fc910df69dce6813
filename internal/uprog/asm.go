package uprog

import (
	"repro/internal/bitmat"
	"repro/internal/uop"
)

// asm builds a micro-program tuple by tuple. Loop bodies are emitted once;
// the trailing tuple of a body carries the decrement and branch μops in its
// spare VLIW slots, exactly as Fig 4's listings pack them.
type asm struct {
	l      Layout
	name   string
	tuples []uop.Tuple
}

func newAsm(l Layout, name string) *asm { return &asm{l: l, name: name} }

func (a *asm) prog() *uop.Program {
	return &uop.Program{Name: a.name, Tuples: a.tuples}
}

// ar emits a tuple holding a lone arithmetic μop.
func (a *asm) ar(op uop.Arith) { a.tuples = append(a.tuples, uop.Tuple{Arith: op}) }

// loop emits `init cnt, count`, then the body, then rides `decr cnt` and
// `bnz cnt, start` on the body's final tuple (or a fresh tuple if its slots
// are taken). The body must emit at least one tuple and runs count times;
// count must be ≥ 1.
func (a *asm) loop(cnt uop.Counter, count int, body func()) {
	if count < 1 {
		panic("uprog: loop count must be >= 1")
	}
	a.tuples = append(a.tuples, uop.Tuple{Ctr: uop.Ctr{Kind: uop.CInit, Cnt: cnt, Val: count}})
	start := len(a.tuples)
	body()
	if len(a.tuples) == start {
		panic("uprog: empty loop body")
	}
	last := &a.tuples[len(a.tuples)-1]
	if last.Ctr.Kind == uop.CNone && last.Ctl.Kind == uop.LNone {
		last.Ctr = uop.Ctr{Kind: uop.CDecr, Cnt: cnt}
		last.Ctl = uop.Ctl{Kind: uop.LBnz, Cnt: cnt, Target: start}
	} else {
		a.tuples = append(a.tuples, uop.Tuple{
			Ctr: uop.Ctr{Kind: uop.CDecr, Cnt: cnt},
			Ctl: uop.Ctl{Kind: uop.LBnz, Cnt: cnt, Target: start},
		})
	}
}

// ret emits the terminating tuple.
func (a *asm) ret() {
	a.tuples = append(a.tuples, uop.Tuple{Ctl: uop.Ctl{Kind: uop.LRet}})
}

// Arithmetic μop constructors.

func blc(ra, rb uop.RowRef) uop.Arith {
	return uop.Arith{Kind: uop.ABLC, A: ra, B: rb}
}

// wbRow writes a computed value back to an SRAM wordline.
func wbRow(d uop.RowRef, src uop.Src, masked bool) uop.Arith {
	return uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: d, Src: src, Masked: masked}
}

// wbLatch writes a computed value into a circuit-stack latch.
func wbLatch(dst uop.Dst, src uop.Src, spread uop.Spread) uop.Arith {
	return uop.Arith{Kind: uop.AWriteback, Dst: dst, Src: src, Spread: spread}
}

// wbOut streams a computed value out through the data_out port.
func wbOut(src uop.Src) uop.Arith {
	return uop.Arith{Kind: uop.AWriteback, Dst: uop.DstDataOut, Src: src}
}

// rd performs a native read into a latch or the data_out port.
func rd(row uop.RowRef, dst uop.Dst) uop.Arith {
	return uop.Arith{Kind: uop.ARead, A: row, Dst: dst}
}

// wrConst performs a native write of an all-zero or all-one pattern.
func wrConst(row uop.RowRef, src uop.Src, masked bool) uop.Arith {
	return uop.Arith{Kind: uop.AWrite, A: row, Src: src, Masked: masked}
}

// wrExt performs a native write from the VSU's data_in port.
func wrExt(row uop.RowRef, ext uop.ExtRef, masked bool) uop.Arith {
	return uop.Arith{Kind: uop.AWrite, A: row, Src: uop.SrcExt, ExtR: ext, Masked: masked}
}

func lshift(masked bool) uop.Arith { return uop.Arith{Kind: uop.ALShift, Masked: masked} }
func rshift(masked bool) uop.Arith { return uop.Arith{Kind: uop.ARShift, Masked: masked} }
func maskShift() uop.Arith         { return uop.Arith{Kind: uop.AMaskShift} }

// Common composite emissions.

// copySeg emits the 2-μop idiom copying one wordline to another through the
// sense amps: blc(src,src) reads the row, wb(and) writes it.
func (a *asm) copySeg(dst, src uop.RowRef, masked bool) {
	a.ar(blc(src, src))
	a.ar(wbRow(dst, uop.SrcAnd, masked))
}

// loadMaskFromRow loads the mask latches from a stored row, optionally
// taking the complement, broadcasting per the spread policy.
func (a *asm) loadMaskFromRow(row uop.RowRef, spread uop.Spread, invert bool) {
	a.ar(blc(row, row))
	src := uop.SrcAnd
	if invert {
		src = uop.SrcNor // nor(r,r) = ~r
	}
	a.ar(wbLatch(uop.DstMask, src, spread))
}

// clearCarry / setCarry initialize the inter-segment carry latch before the
// first segment of an addition (carry-in 0) or subtraction (carry-in 1).
func (a *asm) clearCarry() { a.ar(wbLatch(uop.DstCarry, uop.SrcZero, uop.SpreadNone)) }
func (a *asm) setCarry()   { a.ar(wbLatch(uop.DstCarry, uop.SrcOnes, uop.SpreadNone)) }

// Helper row references over the layout.

// reg returns a counter-indexed reference walking register r's segments.
func (a *asm) reg(r int, cnt uop.Counter) uop.RowRef {
	return uop.RowBy(a.l.RegRow(r, 0), cnt, 1)
}

// regSeg returns a fixed reference to register r's segment s.
func (a *asm) regSeg(r, s int) uop.RowRef { return uop.Row(a.l.RegRow(r, s)) }

// scr returns a counter-indexed reference walking scratch register k.
func (a *asm) scr(k int, cnt uop.Counter) uop.RowRef {
	return uop.RowBy(a.l.ScratchRow(k, 0), cnt, 1)
}

// scrSeg returns a fixed reference to scratch register k's segment s.
func (a *asm) scrSeg(k, s int) uop.RowRef { return uop.Row(a.l.ScratchRow(k, s)) }

func (a *asm) zero() uop.RowRef { return uop.Row(a.l.ZeroRow()) }
func (a *asm) one() uop.RowRef  { return uop.Row(a.l.OneRow()) }
func (a *asm) sign() uop.RowRef { return uop.Row(a.l.SignRow()) }

// BroadcastRows builds the data_in rows for broadcasting the 32-bit scalar x
// to every element: row s holds segment s of x replicated across all column
// groups. These are what the VSU drives on the data_in port for .vx forms.
func BroadcastRows(l Layout, cols int, x uint32) []bitmat.Row {
	rows := make([]bitmat.Row, l.Segs)
	for s := range rows {
		rows[s] = bitmat.NewRow(cols)
	}
	FillBroadcastRows(l, rows, x)
	return rows
}

// FillBroadcastRows refills BroadcastRows' l.Segs rows in place with the
// scalar x.
func FillBroadcastRows(l Layout, rows []bitmat.Row, x uint32) {
	for s, r := range rows[:l.Segs] {
		r.SetGroupPattern(l.N, uint64(x>>uint(s*l.N)))
	}
}

// SignConstRow builds a data_in row with only the MSB column of every group
// set: XORing it with an element's top segment flips the sign bit (the bias
// trick turning signed compares into unsigned ones).
func SignConstRow(l Layout, cols int) bitmat.Row {
	return bitmat.MSBMask(cols, l.N)
}

// TopBitsRow builds a data_in row with the top r bit positions of every
// group set, used to sign-fill the vacated positions of an arithmetic right
// shift's partial segment.
func TopBitsRow(l Layout, cols, r int) bitmat.Row {
	return bitmat.GroupPattern(cols, l.N, (1<<uint(r)-1)<<uint(l.N-r))
}

// BitConstRows builds the data_in rows division expects: row j holds a
// single set bit at offset j of every group.
func BitConstRows(l Layout, cols int) []bitmat.Row {
	rows := make([]bitmat.Row, l.N)
	for j := range rows {
		rows[j] = bitmat.GroupPattern(cols, l.N, 1<<uint(j))
	}
	return rows
}
