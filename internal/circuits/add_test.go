package circuits

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/sram"
	"repro/internal/uop"
)

// rippleAdd is the whole-row carry chain computeAdd replaced: the carry
// ripples through the n column offsets of every group in n row-wide steps,
// each masked to the columns at that offset. It returns the sum and the
// group carry-outs parked at each group's LSB column.
func rippleAdd(s *Stack, p, g bitmat.Row) (sum, cout bitmat.Row) {
	offMask := make([]bitmat.Row, s.n)
	for j := range offMask {
		offMask[j] = bitmat.NewRow(s.cols)
		for c := j; c < s.cols; c += s.n {
			offMask[j].SetBit(c, true)
		}
	}
	sum, cout = bitmat.NewRow(s.cols), bitmat.NewRow(s.cols)
	cin, t1 := bitmat.NewRow(s.cols), bitmat.NewRow(s.cols)
	cin.And(s.carry, s.lsbMask)
	for j := 0; j < s.n; j++ {
		t1.Xor(p, cin)
		t1.And(t1, offMask[j])
		sum.Or(sum, t1)
		t1.And(p, cin)
		t1.Or(t1, g)
		t1.And(t1, offMask[j])
		if j == s.n-1 {
			cout.ShiftRight(t1, s.n-1)
		} else {
			cin.ShiftLeft(t1, 1)
		}
	}
	return sum, cout
}

// TestAddMatchesRippleUnderStuckColumns arms stuck-at-0 and stuck-at-1
// sense columns, then checks every bit-line compute's sum and pending
// carry-out against the ripple oracle, over random operands and random
// carry-latch contents, and that committing the sum writes exactly it.
func TestAddMatchesRippleUnderStuckColumns(t *testing.T) {
	const cols = 192
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			arr := sram.New(8, cols)
			s := NewStack(arr, n)
			for k := 0; k < 6; k++ {
				arr.SetColumnStuck(rng.Intn(cols), k%2 == 0)
			}
			random := func() bitmat.Row {
				r := bitmat.NewRow(cols)
				for c := 0; c < cols; c++ {
					r.SetBit(c, rng.Intn(2) == 1)
				}
				return r
			}
			for i := 0; i < 50; i++ {
				arr.Write(0, random())
				arr.Write(1, random())
				s.carry.CopyFrom(random())
				exec(s, uop.Arith{Kind: uop.ABLC}, 0, 1, 0, nil)
				sum, cout := rippleAdd(s, s.xorV, arr.And())
				if !s.sum.Equal(sum) || !s.pendingCout.Equal(cout) {
					t.Fatalf("iteration %d:\n sum %s\nwant %s\ncout %s\nwant %s",
						i, s.sum, sum, s.pendingCout, cout)
				}
				exec(s, uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: uop.Row(2), Src: uop.SrcAdd}, 0, 0, 2, nil)
				if !arr.Peek(2).Equal(sum) || !s.carry.Equal(cout) {
					t.Fatalf("iteration %d: committed sum or carry differs from the oracle", i)
				}
			}
		})
	}
}
