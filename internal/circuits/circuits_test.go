package circuits

import (
	"testing"

	"repro/internal/bitmat"
	"repro/internal/sram"
	"repro/internal/uop"
)

func newStack(t *testing.T, rows, cols, n int) *Stack {
	t.Helper()
	return NewStack(sram.New(rows, cols), n)
}

func writeRow(s *Stack, row int, bits ...int) {
	r := bitmat.NewRow(s.Array().Cols())
	for _, b := range bits {
		r.SetBit(b, true)
	}
	s.Array().Write(row, r)
}

func exec(s *Stack, op uop.Arith, rowA, rowB, rowD int, env *Env) {
	s.Exec(&op, rowA, rowB, rowD, 0, env)
}

func TestBLCDerivesXorXnor(t *testing.T) {
	s := newStack(t, 4, 8, 4)
	writeRow(s, 0, 0, 1) // 0011....
	writeRow(s, 1, 1, 2) // 0110....
	exec(s, uop.Arith{Kind: uop.ABLC}, 0, 1, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(2), Src: uop.SrcXor}, 0, 0, 2, nil)
	got := s.Array().Peek(2)
	want := []bool{true, false, true, false, false, false, false, false}
	for i, w := range want {
		if got.Bit(i) != w {
			t.Fatalf("xor bit %d = %v, want %v", i, got.Bit(i), w)
		}
	}
}

func TestAddLogicSingleSegment(t *testing.T) {
	// n=4: one segment group computes a 4-bit add with the carry latch.
	s := newStack(t, 8, 4, 4)
	writeRow(s, 0, 0, 1) // 3
	writeRow(s, 1, 0, 2) // 5
	// carry-in = 0 by default.
	exec(s, uop.Arith{Kind: uop.ABLC}, 0, 1, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(2), Src: uop.SrcAdd}, 0, 0, 2, nil)
	got := s.Array().Peek(2)
	// 3 + 5 = 8 = 0b1000.
	want := []bool{false, false, false, true}
	for i, w := range want {
		if got.Bit(i) != w {
			t.Fatalf("sum bit %d = %v, want %v", i, got.Bit(i), w)
		}
	}
}

func TestCarryLatchChainsSegments(t *testing.T) {
	// Two sequential adds: the first overflows the 4-bit group, the second
	// consumes the carried bit (bit-hybrid inter-segment carry).
	s := newStack(t, 8, 4, 4)
	writeRow(s, 0, 3) // 8
	writeRow(s, 1, 3) // 8: 8+8 = 16 -> sum 0, carry out 1
	writeRow(s, 2)    // 0
	writeRow(s, 3)    // 0: 0+0+carry = 1
	exec(s, uop.Arith{Kind: uop.ABLC}, 0, 1, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(4), Src: uop.SrcAdd}, 0, 0, 4, nil)
	if s.Array().Peek(4).Any() {
		t.Fatal("low segment sum should be zero")
	}
	exec(s, uop.Arith{Kind: uop.ABLC}, 2, 3, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(5), Src: uop.SrcAdd}, 0, 0, 5, nil)
	if !s.Array().Peek(5).Bit(0) {
		t.Fatal("high segment should receive the inter-segment carry")
	}
}

func TestMaskLatchGatesWrites(t *testing.T) {
	s := newStack(t, 8, 8, 4)
	// Load mask from a row with group 0's LSB set, spread to the group.
	writeRow(s, 0, 0)
	exec(s, uop.Arith{Kind: uop.ABLC}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstMask, Src: uop.SrcAnd, Spread: uop.SpreadLSB}, 0, 0, 0, nil)
	// Masked write of all-ones: only group 0 takes it.
	exec(s, uop.Arith{Kind: uop.AWrite, A: uop.Row(3), Src: uop.SrcOnes, Masked: true}, 3, 0, 0, nil)
	got := s.Array().Peek(3)
	for i := 0; i < 8; i++ {
		want := i < 4
		if got.Bit(i) != want {
			t.Fatalf("masked write bit %d = %v, want %v", i, got.Bit(i), want)
		}
	}
}

func TestConstantShifterWithSpare(t *testing.T) {
	// Shift a loaded segment left; the MSB leaves into the spare shifter
	// and re-enters the next group served.
	s := newStack(t, 8, 4, 4)
	writeRow(s, 0, 3) // MSB of the group set
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(0), Dst: uop.DstCShift}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.ALShift}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(1), Src: uop.SrcCShift}, 0, 0, 1, nil)
	if s.Array().Peek(1).Any() {
		t.Fatal("bit should have left the group into the spare shifter")
	}
	// A second pass over a zero segment brings the spare bit in at the LSB.
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(2), Dst: uop.DstCShift}, 2, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.ALShift}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(3), Src: uop.SrcCShift}, 0, 0, 3, nil)
	if !s.Array().Peek(3).Bit(0) {
		t.Fatal("spare shifter bit should enter the next segment's LSB")
	}
}

func TestRotateWithinGroup(t *testing.T) {
	s := newStack(t, 4, 4, 4)
	writeRow(s, 0, 3)
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(0), Dst: uop.DstCShift}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.ALRotate}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(1), Src: uop.SrcCShift}, 0, 0, 1, nil)
	if !s.Array().Peek(1).Bit(0) || s.Array().Peek(1).Bit(3) {
		t.Fatalf("rotate failed: %s", s.Array().Peek(1))
	}
}

func TestMaskShiftMovesXRegRight(t *testing.T) {
	s := newStack(t, 4, 4, 4)
	writeRow(s, 0, 1)
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(0), Dst: uop.DstXReg}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AMaskShift}, 0, 0, 0, nil)
	if !s.XReg().Bit(0) || s.XReg().Bit(1) {
		t.Fatalf("m_shft failed: %s", s.XReg())
	}
}

func TestDataOutCollection(t *testing.T) {
	s := newStack(t, 4, 4, 4)
	writeRow(s, 0, 2)
	env := &Env{}
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(0), Dst: uop.DstDataOut}, 0, 0, 0, env)
	if len(env.Out) != 1 || !env.Out[0].Bit(2) {
		t.Fatal("data_out not collected")
	}
}

func TestEnvExtOutOfRangePanics(t *testing.T) {
	env := &Env{}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env.Ext(0)
}

func TestInvalidFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=3")
		}
	}()
	NewStack(sram.New(4, 6), 3)
}

func TestCyclesCount(t *testing.T) {
	s := newStack(t, 4, 4, 4)
	before := s.Cycles()
	exec(s, uop.Arith{Kind: uop.ABLC}, 0, 1, 0, nil)
	exec(s, uop.Arith{Kind: uop.ANone}, 0, 0, 0, nil)
	if s.Cycles() != before+2 {
		t.Fatal("cycle counter wrong")
	}
}

func TestResetClearsLatches(t *testing.T) {
	s := newStack(t, 4, 4, 4)
	writeRow(s, 0, 0, 1, 2, 3)
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(0), Dst: uop.DstXReg}, 0, 0, 0, nil)
	s.Reset()
	if s.XReg().Any() {
		t.Fatal("XRegister survived reset")
	}
	if s.Mask().PopCount() != 4 {
		t.Fatal("mask latches should power up enabled")
	}
}

func TestRotateRightWrapsLSB(t *testing.T) {
	s := newStack(t, 4, 4, 4)
	writeRow(s, 0, 0) // LSB of the group
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(0), Dst: uop.DstCShift}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.ARRotate}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(1), Src: uop.SrcCShift}, 0, 0, 1, nil)
	if !s.Array().Peek(1).Bit(3) || s.Array().Peek(1).Bit(0) {
		t.Fatalf("rrot failed: %s", s.Array().Peek(1))
	}
}

func TestRightShiftSpareCarriesDownward(t *testing.T) {
	s := newStack(t, 8, 4, 4)
	writeRow(s, 0, 0) // LSB set: shifting right pushes it into the spare
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(0), Dst: uop.DstCShift}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.ARShift}, 0, 0, 0, nil)
	// Next (lower) segment receives it at the MSB.
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(1), Dst: uop.DstCShift}, 1, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.ARShift}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(2), Src: uop.SrcCShift}, 0, 0, 2, nil)
	if !s.Array().Peek(2).Bit(3) {
		t.Fatalf("spare bit did not enter the next segment's MSB: %s", s.Array().Peek(2))
	}
}

func TestWritebackToSpareAndDataOut(t *testing.T) {
	s := newStack(t, 4, 4, 4)
	writeRow(s, 0, 0, 1, 2, 3)
	exec(s, uop.Arith{Kind: uop.ABLC}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstSpare, Src: uop.SrcOnes}, 0, 0, 0, nil)
	env := &Env{}
	exec(s, uop.Arith{Kind: uop.ABLC}, 0, 0, 0, nil)
	exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstDataOut, Src: uop.SrcAnd}, 0, 0, 0, env)
	if len(env.Out) != 1 || env.Out[0].PopCount() != 4 {
		t.Fatal("wb to data_out failed")
	}
}

func TestMaskedReadIntoLatch(t *testing.T) {
	s := newStack(t, 4, 4, 1)
	writeRow(s, 0, 1, 3)
	exec(s, uop.Arith{Kind: uop.ARead, A: uop.Row(0), Dst: uop.DstMask}, 0, 0, 0, nil)
	if !s.Mask().Bit(1) || s.Mask().Bit(0) {
		t.Fatalf("mask load from read failed: %s", s.Mask())
	}
}

// TestSkipBLCs: skipping bit-line computes advances the blc sequence
// alone, a drop armed past the skipped range still fires at its own
// compute, and a skip over a pending drop panics instead of losing it.
func TestSkipBLCs(t *testing.T) {
	s := newStack(t, 4, 8, 8)
	writeRow(s, 0, 1)
	writeRow(s, 1, 2)
	s.ArmWordlineDrop(5)
	s.SkipBLCs(5)
	if s.BLCs() != 5 {
		t.Fatalf("after SkipBLCs(5): %d blcs", s.BLCs())
	}
	exec(s, uop.Arith{Kind: uop.ABLC}, 0, 1, 0, nil)
	if s.arr.Or().Bit(2) {
		t.Fatal("the drop armed at blc 5 did not fire at it")
	}
	s.ArmWordlineDrop(9)
	s.SkipBLCs(3) // blcs 6-8
	defer func() {
		if recover() == nil {
			t.Fatal("SkipBLCs over the drop armed at blc 9 did not panic")
		}
	}()
	s.SkipBLCs(2)
}
