package sram

import (
	"testing"

	"repro/internal/bitmat"
)

// TestActivePrefix: with the prefix narrowed to one word of a three-word
// array, writes, reads and bit-line computes touch only columns [0, 64),
// yet every access still ticks and counts, and a flip outside the prefix
// still inverts its cell.
func TestActivePrefix(t *testing.T) {
	a := New(4, 192)
	ones := bitmat.NewRow(192)
	ones.Fill()
	a.Write(0, ones)
	a.ArmBitFlip(1, 150, 2)
	a.SetActive(1)

	zero := bitmat.NewRow(64)
	a.Write(0, zero) // access 0
	if a.Peek(0).PopCount() != 128 {
		t.Fatalf("write touched %d of row 0's columns outside the prefix, want none", 128-a.Peek(0).PopCount())
	}
	got := a.Read(0) // access 1
	if got.Width() != 192 || got.Any() {
		t.Fatalf("read = %s, want 192 zero columns", got)
	}
	a.BitLineCompute(0, 1) // access 2: the flip fires first
	if w := a.Nor().Width(); w != 64 {
		t.Fatalf("sense outputs %d columns wide, want the 64-column prefix", w)
	}
	if !a.Peek(1).Bit(150) {
		t.Fatal("the flip at column 150, outside the prefix, did not invert its cell")
	}
	if s := a.Stats(); s.Reads != 1 || s.Writes != 2 || s.BLCs != 1 || a.Accesses() != 4 {
		t.Fatalf("stats %+v after %d accesses, want 1 read, 2 writes, 1 blc, 4 accesses", s, a.Accesses())
	}
	if a.FlipReach() != 0 {
		t.Fatalf("FlipReach %d after the only flip fired, want 0", a.FlipReach())
	}
}

// TestFlipReach: one past the highest column of a flip still to fire.
func TestFlipReach(t *testing.T) {
	a := New(4, 128)
	if a.FlipReach() != 0 {
		t.Fatalf("FlipReach %d with nothing armed", a.FlipReach())
	}
	a.ArmBitFlip(0, 90, 1)
	a.ArmBitFlip(2, 7, 0)
	if a.FlipReach() != 91 {
		t.Fatalf("FlipReach %d, want 91", a.FlipReach())
	}
	a.Read(3) // access 0 fires the flip at column 7
	if a.FlipReach() != 91 {
		t.Fatalf("FlipReach %d after the column-7 flip fired, want 91", a.FlipReach())
	}
	a.Read(3) // access 1 fires the flip at column 90
	if a.FlipReach() != 0 {
		t.Fatalf("FlipReach %d after both flips fired, want 0", a.FlipReach())
	}
}
