package bitmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRowBitSetGet(t *testing.T) {
	r := NewRow(130)
	if r.Width() != 130 {
		t.Fatalf("Width = %d, want 130", r.Width())
	}
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		r.SetBit(i, true)
	}
	for _, i := range idx {
		if !r.Bit(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := r.PopCount(); got != len(idx) {
		t.Errorf("PopCount = %d, want %d", got, len(idx))
	}
	r.SetBit(64, false)
	if r.Bit(64) {
		t.Error("bit 64 still set after clear")
	}
}

func TestRowOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range bit")
		}
	}()
	NewRow(8).Bit(8)
}

func TestRowLogicOps(t *testing.T) {
	const w = 100
	a, b := NewRow(w), NewRow(w)
	for i := 0; i < w; i++ {
		a.SetBit(i, i%2 == 0)
		b.SetBit(i, i%3 == 0)
	}
	and, or, xor, andnot, not := NewRow(w), NewRow(w), NewRow(w), NewRow(w), NewRow(w)
	and.And(a, b)
	or.Or(a, b)
	xor.Xor(a, b)
	andnot.AndNot(a, b)
	not.Not(a)
	for i := 0; i < w; i++ {
		av, bv := a.Bit(i), b.Bit(i)
		if and.Bit(i) != (av && bv) {
			t.Fatalf("AND bit %d wrong", i)
		}
		if or.Bit(i) != (av || bv) {
			t.Fatalf("OR bit %d wrong", i)
		}
		if xor.Bit(i) != (av != bv) {
			t.Fatalf("XOR bit %d wrong", i)
		}
		if andnot.Bit(i) != (av && !bv) {
			t.Fatalf("ANDNOT bit %d wrong", i)
		}
		if not.Bit(i) != !av {
			t.Fatalf("NOT bit %d wrong", i)
		}
	}
}

func TestNotPreservesWidthInvariant(t *testing.T) {
	// NOT of a row whose width is not a multiple of 64 must keep the unused
	// high bits zero, otherwise PopCount and Equal break.
	r := NewRow(70)
	n := NewRow(70)
	n.Not(r)
	if got := n.PopCount(); got != 70 {
		t.Fatalf("PopCount after Not = %d, want 70", got)
	}
}

func TestMux(t *testing.T) {
	const w = 67
	sel, a, b, out := NewRow(w), NewRow(w), NewRow(w), NewRow(w)
	for i := 0; i < w; i++ {
		sel.SetBit(i, i%2 == 0)
		a.SetBit(i, true)
	}
	out.Mux(sel, a, b)
	for i := 0; i < w; i++ {
		want := i%2 == 0
		if out.Bit(i) != want {
			t.Fatalf("Mux bit %d = %v, want %v", i, out.Bit(i), want)
		}
	}
}

func TestShifts(t *testing.T) {
	const w = 150
	for _, k := range []int{0, 1, 7, 63, 64, 65, 100, 149, 150, 200} {
		a := NewRow(w)
		rng := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < w; i++ {
			a.SetBit(i, rng.Intn(2) == 1)
		}
		l, r := NewRow(w), NewRow(w)
		l.ShiftLeft(a, k)
		r.ShiftRight(a, k)
		for i := 0; i < w; i++ {
			wantL := i-k >= 0 && a.Bit(i-k)
			if l.Bit(i) != wantL {
				t.Fatalf("ShiftLeft(%d) bit %d = %v, want %v", k, i, l.Bit(i), wantL)
			}
			wantR := i+k < w && a.Bit(i+k)
			if r.Bit(i) != wantR {
				t.Fatalf("ShiftRight(%d) bit %d = %v, want %v", k, i, r.Bit(i), wantR)
			}
		}
	}
}

func TestShiftInPlace(t *testing.T) {
	a := NewRow(64)
	a.SetBit(0, true)
	a.ShiftLeft(a, 3)
	if !a.Bit(3) || a.PopCount() != 1 {
		t.Fatalf("in-place ShiftLeft failed: %s", a)
	}
}

func TestShiftNegativeDelegates(t *testing.T) {
	a := NewRow(32)
	a.SetBit(5, true)
	out := NewRow(32)
	out.ShiftLeft(a, -2)
	if !out.Bit(3) {
		t.Fatal("ShiftLeft with negative k should shift right")
	}
}

// Property: shifting left then right by the same amount only loses the bits
// that fell off the top.
func TestShiftRoundTripProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		const w = 96
		k := int(kRaw) % w
		a := NewRow(w)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < w; i++ {
			a.SetBit(i, rng.Intn(2) == 1)
		}
		tmp, back := NewRow(w), NewRow(w)
		tmp.ShiftLeft(a, k)
		back.ShiftRight(tmp, k)
		for i := 0; i < w-k; i++ {
			if back.Bit(i) != a.Bit(i) {
				return false
			}
		}
		for i := w - k; i < w; i++ {
			if back.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixMaskedWrite(t *testing.T) {
	m := NewMatrix(4, 16)
	src, mask := NewRow(16), NewRow(16)
	src.Fill()
	for i := 0; i < 16; i += 2 {
		mask.SetBit(i, true)
	}
	m.WriteRowMasked(2, src, mask)
	for i := 0; i < 16; i++ {
		want := i%2 == 0
		if m.Bit(2, i) != want {
			t.Fatalf("masked write bit %d = %v, want %v", i, m.Bit(2, i), want)
		}
	}
	// Other rows untouched.
	if m.Row(1).Any() {
		t.Fatal("masked write disturbed another row")
	}
}

func TestMatrixReset(t *testing.T) {
	m := NewMatrix(3, 8)
	m.SetBit(1, 4, true)
	m.Reset()
	for r := 0; r < 3; r++ {
		if m.Row(r).Any() {
			t.Fatalf("row %d not cleared", r)
		}
	}
}

func TestGroupMasks(t *testing.T) {
	lsb := LSBMask(16, 4)
	msb := MSBMask(16, 4)
	for i := 0; i < 16; i++ {
		if lsb.Bit(i) != (i%4 == 0) {
			t.Fatalf("LSBMask bit %d wrong", i)
		}
		if msb.Bit(i) != (i%4 == 3) {
			t.Fatalf("MSBMask bit %d wrong", i)
		}
	}
}

func TestSpreadLSBMSB(t *testing.T) {
	const w, n = 16, 4
	a := NewRow(w)
	a.SetBit(0, true)  // group 0 LSB
	a.SetBit(7, true)  // group 1 MSB
	a.SetBit(9, true)  // group 2 interior (ignored by both)
	a.SetBit(15, true) // group 3 MSB

	lsb := NewRow(w)
	lsb.SpreadLSB(a, n)
	for i := 0; i < w; i++ {
		want := i < 4 // only group 0 had its LSB set
		if lsb.Bit(i) != want {
			t.Fatalf("SpreadLSB bit %d = %v, want %v", i, lsb.Bit(i), want)
		}
	}

	msb := NewRow(w)
	msb.SpreadMSB(a, n)
	for i := 0; i < w; i++ {
		want := (i >= 4 && i < 8) || i >= 12 // groups 1 and 3 had MSB set
		if msb.Bit(i) != want {
			t.Fatalf("SpreadMSB bit %d = %v, want %v", i, msb.Bit(i), want)
		}
	}
}

func TestSpreadInPlaceAliasing(t *testing.T) {
	// SpreadLSB must tolerate r aliasing a (it snapshots internally).
	a := NewRow(8)
	a.SetBit(4, true)
	a.SpreadLSB(a, 4)
	for i := 0; i < 8; i++ {
		want := i >= 4
		if a.Bit(i) != want {
			t.Fatalf("aliased SpreadLSB bit %d = %v, want %v", i, a.Bit(i), want)
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	a := NewRow(40)
	a.SetBit(13, true)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.SetBit(14, true)
	if a.Equal(b) {
		t.Fatal("mutating clone affected original equality")
	}
	if a.Equal(NewRow(41)) {
		t.Fatal("rows of different width compare equal")
	}
}
