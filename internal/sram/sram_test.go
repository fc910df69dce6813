package sram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
)

func TestReadWriteRoundTrip(t *testing.T) {
	a := New(16, 64)
	r := bitmat.NewRow(64)
	r.SetBit(0, true)
	r.SetBit(33, true)
	r.SetBit(63, true)
	a.Write(5, r)
	got := a.Read(5)
	if !got.Equal(r) {
		t.Fatalf("read back %s, want %s", got, r)
	}
	st := a.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want 1 read / 1 write", st)
	}
}

func TestBitLineComputeTruthTable(t *testing.T) {
	a := New(4, 4)
	// Row 0 = 0101 (LSB first), row 1 = 0011.
	ra, rb := bitmat.NewRow(4), bitmat.NewRow(4)
	ra.SetBit(0, true)
	ra.SetBit(2, true)
	rb.SetBit(0, true)
	rb.SetBit(1, true)
	a.Write(0, ra)
	a.Write(1, rb)
	a.BitLineCompute(0, 1)

	wantAnd := []bool{true, false, false, false}
	wantOr := []bool{true, true, true, false}
	for i := 0; i < 4; i++ {
		if a.And().Bit(i) != wantAnd[i] {
			t.Errorf("AND bit %d = %v, want %v", i, a.And().Bit(i), wantAnd[i])
		}
		if a.Or().Bit(i) != wantOr[i] {
			t.Errorf("OR bit %d = %v, want %v", i, a.Or().Bit(i), wantOr[i])
		}
		if a.Nand().Bit(i) != !wantAnd[i] {
			t.Errorf("NAND bit %d wrong", i)
		}
		if a.Nor().Bit(i) != !wantOr[i] {
			t.Errorf("NOR bit %d wrong", i)
		}
	}
}

func TestBLCSameRowGivesComplement(t *testing.T) {
	a := New(4, 8)
	r := bitmat.NewRow(8)
	r.SetBit(1, true)
	r.SetBit(6, true)
	a.Write(2, r)
	a.BitLineCompute(2, 2)
	if !a.And().Equal(r) || !a.Or().Equal(r) {
		t.Fatal("blc(r,r) and/or should equal the row itself")
	}
	want := bitmat.NewRow(8)
	want.Not(r)
	if !a.Nand().Equal(want) || !a.Nor().Equal(want) {
		t.Fatal("blc(r,r) nand/nor should be the row's complement")
	}
}

func TestSenseInvalidation(t *testing.T) {
	a := New(4, 8)
	a.BitLineCompute(0, 1)
	if !a.SenseValid() {
		t.Fatal("sense should be valid after blc")
	}
	a.Write(0, bitmat.NewRow(8))
	if a.SenseValid() {
		t.Fatal("write should invalidate sense outputs")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading stale sense outputs should panic")
		}
	}()
	a.And()
}

func TestMaskedWrite(t *testing.T) {
	a := New(4, 8)
	full := bitmat.NewRow(8)
	full.Fill()
	a.Write(1, full)

	zero := bitmat.NewRow(8)
	mask := bitmat.NewRow(8)
	mask.SetBit(2, true)
	mask.SetBit(5, true)
	a.WriteMasked(1, zero, mask)
	got := a.Read(1)
	for i := 0; i < 8; i++ {
		want := i != 2 && i != 5
		if got.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, got.Bit(i), want)
		}
	}
}

func TestStoreLoadUint32AllSegWidths(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		a := New(256, 64)
		rng := rand.New(rand.NewSource(int64(n)))
		vals := []uint32{0, 1, 0xFFFFFFFF, 0x80000001, rng.Uint32(), rng.Uint32()}
		for i, v := range vals {
			col := (i % 2) * n
			base := (i / 2) * (32 / n)
			a.StoreUint32(v, base, col, n)
			if got := a.LoadUint32(base, col, n); got != v {
				t.Errorf("n=%d: round trip of %#x gave %#x", n, v, got)
			}
		}
	}
}

// Property: StoreUint32/LoadUint32 round-trips for arbitrary values at
// arbitrary legal placements.
func TestStoreLoadProperty(t *testing.T) {
	a := New(256, 256)
	f := func(v uint32, colRaw, rowRaw uint8, nIdx uint8) bool {
		ns := []int{1, 2, 4, 8, 16, 32}
		n := ns[int(nIdx)%len(ns)]
		segs := 32 / n
		col := (int(colRaw) % (256 / n)) * n
		base := (int(rowRaw) % (256 / segs)) * segs
		a.StoreUint32(v, base, col, n)
		return a.LoadUint32(base, col, n) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStandardGeometry(t *testing.T) {
	a := NewStandard()
	if a.Rows() != 256 || a.Cols() != 256 {
		t.Fatalf("standard array is %dx%d, want 256x256", a.Rows(), a.Cols())
	}
}

func TestInvalidSegWidthPanics(t *testing.T) {
	a := New(64, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for segment width not dividing 32")
		}
	}()
	a.StoreUint32(1, 0, 0, 5)
}

// TestSkip: skipping accesses advances the sequence alone, a flip armed
// past the skipped range still fires at its own access, and a skip over a
// pending flip panics instead of losing it.
func TestSkip(t *testing.T) {
	a := New(4, 64)
	a.ArmBitFlip(2, 9, 10)
	a.Skip(10) // accesses 0-9; the flip fires at access 10
	if a.Accesses() != 10 || a.Stats() != (AccessStats{}) || a.Peek(2).Bit(9) {
		t.Fatalf("after Skip(10): %d accesses, stats %+v, bit %v", a.Accesses(), a.Stats(), a.Peek(2).Bit(9))
	}
	a.Read(0)
	if !a.Peek(2).Bit(9) {
		t.Fatal("the flip armed at access 10 did not fire at it")
	}
	a.ArmBitFlip(1, 3, 14)
	a.Skip(3) // accesses 11-13
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Skip over the flip armed at access 14 did not panic")
			}
		}()
		a.Skip(1)
	}()
	if a.Accesses() != 14 {
		t.Fatalf("a refused Skip moved the sequence to %d", a.Accesses())
	}
}
