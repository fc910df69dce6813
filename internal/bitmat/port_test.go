package bitmat

import (
	"fmt"
	"testing"
)

// The whole-row passes below are the circuit-stack shifter μops the one-loop
// group shifts replaced (shiftLeft, shiftRight, rotateLeft, rotateRight and
// maskShift) and the And/Or/applyStuck/Not sequence SenseBitLines replaced.
// They are built from row-wide And/Shift/Mux passes and the per-bit spread
// and mask oracles, so they share no per-word arithmetic with the code under
// test.

// condRef is the per-column shift enable: every column, or each group's
// LSB-column mask bit spread over the group.
func condRef(mask Row, n int, masked bool) Row {
	c := NewRow(mask.width)
	if !masked {
		c.Fill()
		return c
	}
	spreadLSBRef(c, mask, n)
	return c
}

func shiftLeftRef(cshift, spare, mask Row, n int, masked bool) {
	w := cshift.width
	cond, lsbMask, msbMask := condRef(mask, n, masked), lsbMaskRef(w, n), msbMaskRef(w, n)
	out, sh, t2 := NewRow(w), NewRow(w), NewRow(w)
	out.And(cshift, msbMask)
	out.ShiftRight(out, n-1)
	sh.ShiftLeft(cshift, 1)
	sh.AndNot(sh, lsbMask)
	t2.And(spare, lsbMask)
	sh.Or(sh, t2)
	cshift.Mux(cond, sh, cshift)
	t2.And(cond, lsbMask)
	spare.Mux(t2, out, spare)
}

func shiftRightRef(cshift, spare, mask Row, n int, masked bool) {
	w := cshift.width
	cond, lsbMask, msbMask := condRef(mask, n, masked), lsbMaskRef(w, n), msbMaskRef(w, n)
	out, sh, t2 := NewRow(w), NewRow(w), NewRow(w)
	out.And(cshift, lsbMask)
	sh.ShiftRight(cshift, 1)
	sh.AndNot(sh, msbMask)
	t2.And(spare, lsbMask)
	t2.ShiftLeft(t2, n-1)
	sh.Or(sh, t2)
	cshift.Mux(cond, sh, cshift)
	t2.And(cond, lsbMask)
	spare.Mux(t2, out, spare)
}

func rotateLeftRef(cshift, mask Row, n int, masked bool) {
	w := cshift.width
	cond, lsbMask, msbMask := condRef(mask, n, masked), lsbMaskRef(w, n), msbMaskRef(w, n)
	wrap, sh := NewRow(w), NewRow(w)
	wrap.And(cshift, msbMask)
	wrap.ShiftRight(wrap, n-1)
	sh.ShiftLeft(cshift, 1)
	sh.AndNot(sh, lsbMask)
	sh.Or(sh, wrap)
	cshift.Mux(cond, sh, cshift)
}

func rotateRightRef(cshift, mask Row, n int, masked bool) {
	w := cshift.width
	cond, lsbMask, msbMask := condRef(mask, n, masked), lsbMaskRef(w, n), msbMaskRef(w, n)
	wrap, sh := NewRow(w), NewRow(w)
	wrap.And(cshift, lsbMask)
	wrap.ShiftLeft(wrap, n-1)
	sh.ShiftRight(cshift, 1)
	sh.AndNot(sh, msbMask)
	sh.Or(sh, wrap)
	cshift.Mux(cond, sh, cshift)
}

func maskShiftRef(xreg Row, n int) {
	sh := NewRow(xreg.width)
	sh.ShiftRight(xreg, 1)
	sh.AndNot(sh, msbMaskRef(xreg.width, n))
	xreg.CopyFrom(sh)
}

// senseRef is the four-pass bit-line compute: and/or, the stuck-column force
// on both positive outputs, then the complements.
func senseRef(and, nand, or, nor, a, b, stuck0, stuck1 Row) {
	and.And(a, b)
	or.Or(a, b)
	for _, r := range []Row{and, or} {
		r.AndNot(r, stuck0)
		r.Or(r, stuck1)
	}
	nand.Not(and)
	nor.Not(or)
}

// copyColumnsRef copies columns [col, width) one bit at a time.
func copyColumnsRef(r, src Row, col int) {
	for c := col; c < r.width; c++ {
		r.SetBit(c, src.Bit(c))
	}
}

// checkShifterAndSense holds the one-loop shifter μops and SenseBitLines to
// the whole-row oracles above, masked and unmasked, over arbitrary constant
// shifter, spare and mask words (spare bits off the group LSB columns
// included, which the μops must preserve).
func checkShifterAndSense(t *testing.T, src *rowStream, width, n int) {
	t.Helper()
	cs, spare, mask := src.row(width), src.row(width), src.row(width)
	same := func(op string, got, want Row) {
		t.Helper()
		if !got.Equal(want) {
			t.Fatalf("%s (width %d, n %d):\n got %s\nwant %s", op, width, n, got, want)
		}
	}
	for _, masked := range []bool{false, true} {
		for _, sh := range []struct {
			name string
			word func(r, spare, mask Row, n int, masked bool)
			ref  func(r, spare, mask Row, n int, masked bool)
		}{
			{"ShiftGroupsLeft", Row.ShiftGroupsLeft, shiftLeftRef},
			{"ShiftGroupsRight", Row.ShiftGroupsRight, shiftRightRef},
		} {
			gotC, gotS, wantC, wantS := cs.Clone(), spare.Clone(), cs.Clone(), spare.Clone()
			sh.word(gotC, gotS, mask, n, masked)
			sh.ref(wantC, wantS, mask, n, masked)
			same(fmt.Sprintf("%s masked=%v cshift", sh.name, masked), gotC, wantC)
			same(fmt.Sprintf("%s masked=%v spare", sh.name, masked), gotS, wantS)
		}
		for _, rot := range []struct {
			name string
			word func(r, mask Row, n int, masked bool)
			ref  func(r, mask Row, n int, masked bool)
		}{
			{"RotateGroupsLeft", Row.RotateGroupsLeft, rotateLeftRef},
			{"RotateGroupsRight", Row.RotateGroupsRight, rotateRightRef},
		} {
			got, want := cs.Clone(), cs.Clone()
			rot.word(got, mask, n, masked)
			rot.ref(want, mask, n, masked)
			same(fmt.Sprintf("%s masked=%v", rot.name, masked), got, want)
		}
	}
	got, want := cs.Clone(), cs.Clone()
	got.ShiftGroupsRightZero(n)
	maskShiftRef(want, n)
	same("ShiftGroupsRightZero", got, want)

	a, b := src.row(width), src.row(width)
	sparse := func() Row {
		r := src.row(width)
		r.And(r, src.row(width))
		r.And(r, src.row(width))
		return r
	}
	none := NewRow(width)
	for _, st := range []struct {
		name   string
		s0, s1 Row
	}{
		{"no stuck columns", none, none},
		{"stuck at 0", sparse(), none},
		{"stuck at 1", none, sparse()},
		{"stuck at both polarities", sparse(), sparse()},
	} {
		var got, want [4]Row
		for i := range got {
			got[i], want[i] = src.row(width), NewRow(width)
		}
		SenseBitLines(got[0], got[1], got[2], got[3], a, b, st.s0, st.s1)
		senseRef(want[0], want[1], want[2], want[3], a, b, st.s0, st.s1)
		for i, name := range []string{"and", "nand", "or", "nor"} {
			same(fmt.Sprintf("SenseBitLines %s, %s", st.name, name), got[i], want[i])
		}
	}
}

// FuzzElementTransfers holds the data port's range transfers to the
// per-element ReadSegments/WriteSegments path and its tail restore to a
// per-bit copy: every n, any first element and run length (empty and
// whole-register runs included), partial first and last words, and the
// restore column at 0, at every word boundary, mid-word and at the row's
// end. Rows span one to four words, with a partial last word when the width
// is not a multiple of 64. The checked-in corpus under
// testdata/fuzz/FuzzElementTransfers seeds each n.
func FuzzElementTransfers(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, nSel uint8, first, count uint16, data []byte) {
		n := factors[int(nSel)%len(factors)]
		words := 1 + int(shape)%4
		width := words*WordBits - n*(int(shape/4)%(WordBits/n))
		elems, segs := width/n, 32/n
		src := &rowStream{data: data, state: uint64(shape)<<40 | uint64(nSel)<<32 | uint64(first)<<16 | uint64(count)}
		fe := int(first) % (elems + 1)
		cnt := int(count) % (elems - fe + 1)
		row := int(nSel>>3) % 3

		got, want := NewMatrix(segs+2, width), NewMatrix(segs+2, width)
		for i := range got.data {
			got.data[i] = src.row(width)
			want.data[i].CopyFrom(got.data[i])
		}
		sameMatrix := func(op string) {
			t.Helper()
			for i := range got.data {
				if !got.data[i].Equal(want.data[i]) {
					t.Fatalf("%s (width %d, n %d, row %d, first %d, count %d) row %d:\n got %s\nwant %s",
						op, width, n, row, fe, cnt, i, got.data[i], want.data[i])
				}
			}
		}

		dst := make([]uint32, cnt)
		for i := range dst {
			dst[i] = uint32(src.next()) // stale contents the read must overwrite
		}
		got.ReadElements(row, n, fe, dst)
		for e, v := range dst {
			if w := uint32(want.ReadSegments(row, (fe+e)*n, n, segs)); v != w {
				t.Fatalf("ReadElements(%d, %d, %d) of width %d: element %d = %#x, want %#x", row, n, fe, width, fe+e, v, w)
			}
		}

		vals := make([]uint32, cnt)
		for i := range vals {
			vals[i] = uint32(src.next())
		}
		got.WriteElements(row, n, fe, vals)
		for e, v := range vals {
			want.WriteSegments(row, (fe+e)*n, n, segs, uint64(v))
		}
		sameMatrix("WriteElements")

		cols := []int{0, width, int(first) % (width + 1)}
		for c := WordBits; c < width; c += WordBits {
			cols = append(cols, c, c-n)
		}
		for _, col := range cols {
			snap := src.row(width)
			got.data[row].CopyColumnsFrom(snap, col)
			copyColumnsRef(want.data[row], snap, col)
			sameMatrix(fmt.Sprintf("CopyColumnsFrom column %d", col))
		}
	})
}

// TestElementTransfersRejectOutOfRange pins the range check: a run must fit
// the register's rows and the columns, and n must divide 32.
func TestElementTransfersRejectOutOfRange(t *testing.T) {
	m := NewMatrix(8, 128)
	for _, c := range []struct{ row, n, first, count int }{
		{0, 4, 0, 33}, {0, 4, 30, 3}, {0, 4, -1, 1}, {-1, 8, 0, 1},
		{5, 8, 0, 1}, {0, 3, 0, 1}, {0, 0, 0, 1}, {0, 64, 0, 1},
	} {
		for name, op := range map[string]func(){
			"ReadElements":  func() { m.ReadElements(c.row, c.n, c.first, make([]uint32, c.count)) },
			"WriteElements": func() { m.WriteElements(c.row, c.n, c.first, make([]uint32, c.count)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s%+v on 8x128 did not panic", name, c)
					}
				}()
				op()
			}()
		}
	}
	if p := func() (p any) {
		defer func() { p = recover() }()
		NewRow(64).CopyColumnsFrom(NewRow(64), 65)
		return nil
	}(); p == nil {
		t.Error("CopyColumnsFrom past the row's end did not panic")
	}
}
