package sram

import (
	"math/rand"
	"testing"
)

// storeUint32Ref and loadUint32Ref are the per-bit element transfers the
// n-bit field versions replaced: 32 single-bit touches per element.
func storeUint32Ref(a *Array, v uint32, baseRow, colBase, segBits int) {
	for k := 0; k < 32; k++ {
		a.mat.SetBit(baseRow+k/segBits, colBase+k%segBits, v>>uint(k)&1 == 1)
	}
}

func loadUint32Ref(a *Array, baseRow, colBase, segBits int) uint32 {
	var v uint32
	for k := 0; k < 32; k++ {
		if a.mat.Bit(baseRow+k/segBits, colBase+k%segBits) {
			v |= 1 << uint(k)
		}
	}
	return v
}

// TestElementTransfersMatchPerBitOracle stores random elements at random
// rows and column bases — aligned to a group or not, straddling a word or
// not — into two arrays, one through StoreUint32 and one through the
// oracle, and requires identical cells and identical loads throughout.
func TestElementTransfersMatchPerBitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, cols := range []int{32, 96, 256} {
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			got, want := New(64, cols), New(64, cols)
			for i := 0; i < 200; i++ {
				v := rng.Uint32()
				base := rng.Intn(64 - 32/n + 1)
				col := rng.Intn(cols - n + 1)
				got.StoreUint32(v, base, col, n)
				storeUint32Ref(want, v, base, col, n)
				lb, lc := rng.Intn(64-32/n+1), rng.Intn(cols-n+1)
				if g, w := got.LoadUint32(lb, lc, n), loadUint32Ref(want, lb, lc, n); g != w {
					t.Fatalf("cols %d n %d: LoadUint32(%d, %d) = %#x, oracle %#x", cols, n, lb, lc, g, w)
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
