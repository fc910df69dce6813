package faults_test

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/uprog"
)

// TestTailUndisturbed pins RVV's tail-undisturbed policy on the substrate.
// Micro-programs compute every element the arrays hold, so the datapath
// must leave vd's elements from VL on exactly as they were, even when a
// fault corrupts those cells during the run. At every n, VL is chosen so
// the tail starts mid-word (VL·n is not a multiple of 64), vd's tail is
// prefilled with a pattern, and each native op runs fault-free, with a bit
// flip firing on a vd tail cell near the end of the run, and with a tail
// column stuck at either polarity. The tail must still hold the pattern and
// the head must equal the golden result.
func TestTailUndisturbed(t *testing.T) {
	const vd, vs1, vs2 = 3, 1, 2
	const k = 5 // a shift amount that is not a multiple of n unless n is 1
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		hwvl := 256 / n
		vl := hwvl/2 + 1
		a, b, pattern := make([]uint32, hwvl), make([]uint32, hwvl), make([]uint32, hwvl)
		for i := range a {
			a[i] = uint32(i) * 0x9E3779B9
			b[i] = ^uint32(i) * 0x85EBCA6B
			pattern[i] = 0xA5A50000 | uint32(i)
		}
		ops := []struct {
			name string
			in   isa.Instr
			want func(i int) uint32
		}{
			{"add.vv", isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: vd, Vs1: vs1, Vs2: vs2}, func(i int) uint32 { return a[i] + b[i] }},
			{"add.vx", isa.Instr{Op: isa.OpAdd, Kind: isa.KindVX, Vd: vd, Vs1: vs1, Scalar: 0x01234567}, func(i int) uint32 { return a[i] + 0x01234567 }},
			{fmt.Sprintf("sll.vx %d", k), isa.Instr{Op: isa.OpSll, Kind: isa.KindVX, Vd: vd, Vs1: vs1, Scalar: k}, func(i int) uint32 { return a[i] << k }},
		}
		for _, op := range ops {
			// setup arms f, if any, and loads the operands and the prefilled
			// destination through the data port, as a vector load would.
			setup := func(f *faults.Fault) *faults.Datapath {
				dp := faults.NewDatapath(n, hwvl, 0)
				if f != nil {
					dp.Arm(*f)
				}
				for r, v := range map[int][]uint32{vs1: a, vs2: b, vd: pattern} {
					dp.Exec(&isa.Instr{Op: isa.OpLoad, Vd: r, VL: hwvl}, v)
				}
				return dp
			}
			run := func(dp *faults.Datapath) []uint32 {
				in := op.in
				in.VL = vl
				golden := append([]uint32(nil), pattern...)
				for i := 0; i < vl; i++ {
					golden[i] = op.want(i)
				}
				return append([]uint32(nil), dp.Exec(&in, golden)...)
			}
			clean := setup(nil)
			run(clean)
			accesses := clean.Profile().Accesses
			tailCol := vl*n + n/2
			for _, arm := range []struct {
				name string
				f    *faults.Fault
			}{
				{"fault-free", nil},
				{"tail bit flip", &faults.Fault{Kind: faults.KindBitFlip, Row: uprog.NewLayout(n).RegRow(vd, 0), Col: tailCol, Seq: accesses - 1}},
				{"tail column stuck at 1", &faults.Fault{Kind: faults.KindStuckSA, Col: tailCol, Stuck: true}},
				{"tail column stuck at 0", &faults.Fault{Kind: faults.KindStuckSA, Col: hwvl*n - 1}},
			} {
				dp := setup(arm.f)
				got := run(dp)
				if arm.f != nil && arm.f.Kind == faults.KindBitFlip && dp.Profile().Accesses <= arm.f.Seq {
					t.Fatalf("n=%d %s, %s: the flip at access %d never fired (%d accesses)", n, op.name, arm.name, arm.f.Seq, dp.Profile().Accesses)
				}
				live := dp.Register(vd)
				for i := 0; i < hwvl; i++ {
					want := pattern[i]
					if i < vl {
						want = op.want(i)
						if got[i] != want {
							t.Fatalf("n=%d vl=%d %s, %s: Exec element %d = %#x, want %#x", n, vl, op.name, arm.name, i, got[i], want)
						}
					}
					if live[i] != want {
						t.Fatalf("n=%d vl=%d %s, %s: vd element %d holds %#x, want %#x", n, vl, op.name, arm.name, i, live[i], want)
					}
				}
			}
		}
	}
}
