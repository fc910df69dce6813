package sram

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

// StoreUint32 and LoadUint32 are the per-element data port the range
// transfers replaced, kept as the test oracle: one 32-bit value written
// "vertically" at any column base, bit k of v in row baseRow+k/segBits,
// column colBase+k%segBits, one single-bit touch at a time.
func (a *Array) StoreUint32(v uint32, baseRow, colBase, segBits int) {
	checkSegBits(segBits)
	for k := 0; k < 32; k++ {
		a.mat.SetBit(baseRow+k/segBits, colBase+k%segBits, v>>uint(k)&1 == 1)
	}
}

func (a *Array) LoadUint32(baseRow, colBase, segBits int) uint32 {
	checkSegBits(segBits)
	var v uint32
	for k := 0; k < 32; k++ {
		if a.mat.Bit(baseRow+k/segBits, colBase+k%segBits) {
			v |= 1 << uint(k)
		}
	}
	return v
}

func checkSegBits(segBits int) {
	if segBits <= 0 || 32%segBits != 0 {
		panic(fmt.Sprintf("sram: segment width %d does not divide 32", segBits))
	}
}

// TestElementTransfersMatchPerBitOracle writes random runs of elements —
// starting mid-word or not, spanning several words or none — into two
// arrays, one through WriteElements and one element at a time through the
// per-bit oracle, and requires identical cells and identical range reads
// throughout.
func TestElementTransfersMatchPerBitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, cols := range []int{32, 96, 256} {
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			got, want := New(64, cols), New(64, cols)
			elems, segs := cols/n, 32/n
			for i := 0; i < 200; i++ {
				base := rng.Intn(64 - segs + 1)
				first := rng.Intn(elems + 1)
				vals := make([]uint32, rng.Intn(elems-first+1))
				for e := range vals {
					vals[e] = rng.Uint32()
					want.StoreUint32(vals[e], base, (first+e)*n, n)
				}
				got.WriteElements(base, n, first, vals)
				lb, lf := rng.Intn(64-segs+1), rng.Intn(elems+1)
				out := make([]uint32, rng.Intn(elems-lf+1))
				got.ReadElements(lb, n, lf, out)
				for e, v := range out {
					if w := want.LoadUint32(lb, (lf+e)*n, n); v != w {
						t.Fatalf("cols %d n %d: ReadElements(%d, %d) element %d = %#x, oracle %#x", cols, n, lb, lf, lf+e, v, w)
					}
				}
			}
			for r := 0; r < 64; r++ {
				if !got.Peek(r).Equal(want.Peek(r)) {
					t.Fatalf("cols %d n %d: row %d diverged from the oracle:\n got %s\nwant %s",
						cols, n, r, got.Peek(r), want.Peek(r))
				}
			}
		}
	}
}

// TestDataPortIsNotAnAccess pins the data port's contract: range transfers
// and the row snapshot/restore pair move cells without ticking the access
// sequence (so an armed bit flip does not fire), without counting in
// AccessStats, and unaffected by stuck sense columns.
func TestDataPortIsNotAnAccess(t *testing.T) {
	const n, cols = 8, 256
	a := New(8, cols)
	a.SetColumnStuck(3, true)
	a.SetColumnStuck(200, false)
	a.ArmBitFlip(0, 0, 0)
	vals := make([]uint32, cols/n)
	for i := range vals {
		vals[i] = 0x01020304 * uint32(i+1)
	}
	a.WriteElements(0, n, 0, vals)
	snap := []bitmat.Row{bitmat.NewRow(cols), bitmat.NewRow(cols), bitmat.NewRow(cols), bitmat.NewRow(cols)}
	a.SaveRows(0, snap)
	a.RestoreColumns(0, 100, snap)
	got := make([]uint32, len(vals))
	a.ReadElements(0, n, 0, got)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("element %d read back %#x, want %#x", i, got[i], vals[i])
		}
	}
	if a.Accesses() != 0 || a.Stats() != (AccessStats{}) {
		t.Fatalf("data port counted %d accesses, stats %+v", a.Accesses(), a.Stats())
	}
}

// TestReadIntoMatchesRead: latching a read in place senses the same bits,
// stuck columns included, and counts as the same one access.
func TestReadIntoMatchesRead(t *testing.T) {
	a := New(4, 96)
	a.StoreUint32(0xDEADBEEF, 0, 40, 32)
	a.SetColumnStuck(41, false)
	a.SetColumnStuck(70, true)
	want := a.Read(0)
	dst := New(1, 96).Peek(0)
	dst.Fill()
	a.ReadInto(0, dst)
	if !dst.Equal(want) {
		t.Fatalf("ReadInto = %s, Read = %s", dst, want)
	}
	if st := a.Stats(); st.Reads != 2 || a.Accesses() != 2 {
		t.Fatalf("two reads counted as %d reads, %d accesses", st.Reads, a.Accesses())
	}
}
