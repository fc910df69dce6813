package uprog

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

// The per-bit builders below are the reference implementations of the
// data_in constant rows, which are now built as one repeated group pattern.

func broadcastRowsRef(l Layout, cols int, x uint32) []bitmat.Row {
	rows := make([]bitmat.Row, l.Segs)
	for s := 0; s < l.Segs; s++ {
		r := bitmat.NewRow(cols)
		for g := 0; g < cols/l.N; g++ {
			for b := 0; b < l.N; b++ {
				r.SetBit(g*l.N+b, x>>uint(s*l.N+b)&1 == 1)
			}
		}
		rows[s] = r
	}
	return rows
}

func topBitsRowRef(l Layout, cols, r int) bitmat.Row {
	row := bitmat.NewRow(cols)
	for g := 0; g < cols/l.N; g++ {
		for b := l.N - r; b < l.N; b++ {
			row.SetBit(g*l.N+b, true)
		}
	}
	return row
}

func bitConstRowsRef(l Layout, cols int) []bitmat.Row {
	rows := make([]bitmat.Row, l.N)
	for j := 0; j < l.N; j++ {
		r := bitmat.NewRow(cols)
		for g := 0; g < cols/l.N; g++ {
			r.SetBit(g*l.N+j, true)
		}
		rows[j] = r
	}
	return rows
}

func sameRows(t *testing.T, what string, got, want []bitmat.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s row %d:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

func TestConstRowsMatchPerBitOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range allN {
		l := NewLayout(n)
		for _, elems := range []int{1, 3, 64} {
			cols := elems * n
			for _, x := range append([]uint32{0, 0x7FFFFFFF, 0x80000000}, rng.Uint32(), rng.Uint32()) {
				sameRows(t, "BroadcastRows", BroadcastRows(l, cols, x), broadcastRowsRef(l, cols, x))
			}
			for r := 0; r <= n; r++ {
				sameRows(t, "TopBitsRow", []bitmat.Row{TopBitsRow(l, cols, r)}, []bitmat.Row{topBitsRowRef(l, cols, r)})
			}
			sameRows(t, "BitConstRows", BitConstRows(l, cols), bitConstRowsRef(l, cols))
		}
	}
}
