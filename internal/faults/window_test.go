package faults_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/uprog"
)

// differential runs the same instructions on an always-live Datapath,
// which runs each micro-program over the instruction's active columns only,
// and on the full-width oracle, and fails at the first Exec result or
// register that differs. Both stay live because golden is a stand-in, not
// the builder's result a dormant instruction would install.
type differential struct {
	t      *testing.T
	win    faults.AlwaysLive
	full   faults.FullWidth
	golden []uint32
}

// newDifferential builds both datapaths, arms f (if any) on each, and loads
// regs through the data port.
func newDifferential(t *testing.T, n, hwvl int, f *faults.Fault, regs map[int][]uint32) *differential {
	t.Helper()
	d := &differential{t: t, win: faults.NewAlwaysLive(n, hwvl, 0), full: faults.NewFullWidth(n, hwvl, 0), golden: make([]uint32, hwvl)}
	if f != nil {
		d.win.Arm(*f)
		d.full.Arm(*f)
	}
	for r, v := range regs {
		d.exec(fmt.Sprintf("load v%d", r), isa.Instr{Op: isa.OpLoad, Vd: r, VL: hwvl}, v)
	}
	return d
}

// exec runs in on both datapaths and compares the Exec results, every
// register and the access counts. golden stands in for the builder's result
// (only its elements from VL on reach a native op's return value).
func (d *differential) exec(step string, in isa.Instr, golden []uint32) {
	d.t.Helper()
	win, full := d.win.Exec(&in, golden), d.full.Exec(&in, golden)
	if i := firstDiff(win, full); i >= 0 {
		d.t.Fatalf("%s (%+v): Exec element %d = %#x, full width %#x", step, in, i, win[i], full[i])
	}
	for r := 0; r < 32; r++ {
		win, full := d.win.Register(r), d.full.Register(r)
		if i := firstDiff(win, full); i >= 0 {
			d.t.Fatalf("%s (%+v): v%d element %d = %#x, full width %#x", step, in, r, i, win[i], full[i])
		}
	}
	if pw, pf := d.win.Profile(), d.full.Profile(); pw != pf {
		d.t.Fatalf("%s (%+v): profile %+v, full width %+v", step, in, pw, pf)
	}
}

func firstDiff(a, b []uint32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// activeColumnOps are the ops faults.Datapath runs as micro-programs, with
// whether the fuzzer may issue them as .vx (vmerge is only ever .vvm).
var activeColumnOps = []struct {
	op isa.Op
	vx bool
}{
	{isa.OpAdd, true}, {isa.OpSub, true}, {isa.OpRSub, true},
	{isa.OpAnd, true}, {isa.OpOr, true}, {isa.OpXor, true},
	{isa.OpSAdd, true}, {isa.OpSAddU, true}, {isa.OpSSub, true}, {isa.OpSSubU, true},
	{isa.OpMin, true}, {isa.OpMax, true}, {isa.OpMinU, true}, {isa.OpMaxU, true},
	{isa.OpSll, true}, {isa.OpSrl, true}, {isa.OpSra, true},
	{isa.OpMerge, false}, {isa.OpMv, true},
	{isa.OpMul, true}, {isa.OpMacc, true}, {isa.OpMulH, true},
	{isa.OpDiv, true}, {isa.OpDivU, true}, {isa.OpRem, true}, {isa.OpRemU, true},
	{isa.OpMSeq, true}, {isa.OpMSne, true}, {isa.OpMSlt, true}, {isa.OpMSltU, true},
	{isa.OpMSle, true}, {isa.OpMSleU, true}, {isa.OpMSgt, true}, {isa.OpMSgtU, true},
}

// FuzzActiveColumns holds active-column execution to the full-width oracle:
// at a fuzzed factor n, a random sequence of micro-program ops (masked or
// not, .vv or .vx, over registers v0-v4 with v0 the mask) at random VLs
// from 0 to hwvl, with one fault of the fuzzed kind armed on both sides,
// must leave identical Exec results, registers and access counts at every
// step. Each instruction takes five bytes of prog: op, form (bit 0 .vx, bit
// 1 masked), registers (vd, vs1, vs2 in 2-bit fields, plus one), VL
// (scaled from 0..255 to 0..hwvl) and the scalar. kind selects no fault, a
// bit flip, a stuck sense column or a wordline drop; row, col and seq place
// it, seq reduced over the fault-free run's accesses or bit-line computes
// so it fires.
func FuzzActiveColumns(f *testing.F) {
	f.Fuzz(func(t *testing.T, nSel, kind uint8, row, col, seq uint16, dataSeed int64, prog []byte) {
		n := []int{1, 2, 4, 8, 16, 32}[int(nSel)%6]
		hwvl := 512 / n
		const maxInstrs = 12
		var instrs []isa.Instr
		for len(prog) >= 5 && len(instrs) < maxInstrs {
			b := prog[:5]
			prog = prog[5:]
			o := activeColumnOps[int(b[0])%len(activeColumnOps)]
			in := isa.Instr{
				Op:     o.op,
				Kind:   isa.KindVV,
				Masked: b[1]&2 != 0,
				Vd:     1 + int(b[2]&3),
				Vs1:    1 + int(b[2]>>2&3),
				Vs2:    1 + int(b[2]>>4&3),
				VL:     int(b[3]) * hwvl / 255,
				Scalar: uint32(b[4]) * 0x01010101,
			}
			if o.vx && b[1]&1 != 0 {
				in.Kind = isa.KindVX
			}
			instrs = append(instrs, in)
		}
		rng := rand.New(rand.NewSource(dataSeed))
		regs := map[int][]uint32{}
		for r := 0; r <= 4; r++ {
			v := make([]uint32, hwvl)
			for i := range v {
				v[i] = rng.Uint32()
			}
			regs[r] = v
		}
		run := func(d *differential) {
			for i, in := range instrs {
				d.exec(fmt.Sprintf("n=%d step %d", n, i), in, d.golden)
			}
		}

		var fault *faults.Fault
		if k := kind % 4; k != 0 {
			clean := newDifferential(t, n, hwvl, nil, regs)
			run(clean)
			p := clean.full.Profile()
			fault = &faults.Fault{Row: int(row), Col: int(col), Stuck: row&1 != 0}
			switch k {
			case 1:
				fault.Kind, fault.Seq = faults.KindBitFlip, uint64(seq)%(p.Accesses+1)
			case 2:
				fault.Kind = faults.KindStuckSA
			case 3:
				fault.Kind, fault.Seq = faults.KindWordlineDrop, uint64(seq)%(p.BLCs+1)
			}
		}
		run(newDifferential(t, n, hwvl, fault, regs))
	})
}

// TestFlipInMinMaxMergeStaysExact pins the one case where columns outside
// an instruction's VL matter. A masked vmin merges into scratch s5 under
// the selector sel = (a > b) and then under its complement; a bit flip on
// sel between the two mask loads leaves an s5 column unwritten, holding
// what an earlier instruction wrote there, and the v0-masked copy moves it
// into vd. At n=8 and hwvl 1024, vmin v3, v1, v2 at VL 1024, then vmin
// v3, v4, v5 at VL 64, then vmin v3, v1, v2 at VL 1024 again, with a flip
// on sel at element e armed at every access of the third instruction:
// full width, s5 at element e holds the second instruction's value, so a
// window of the VL alone would diverge. The flip's element must stay in
// every window until the flip fires. Element 500 sits mid-word; element
// 504 starts a word, so word rounding cannot hide a window that stops
// one element short of the flip.
func TestFlipInMinMaxMergeStaysExact(t *testing.T) {
	for _, elem := range []int{500, 504} {
		t.Run(fmt.Sprintf("element %d", elem), func(t *testing.T) { flipInMinMaxMerge(t, elem) })
	}
}

func flipInMinMaxMerge(t *testing.T, elem int) {
	const n, hwvl = 8, 1024
	regs := map[int][]uint32{}
	for r := 0; r <= 5; r++ {
		v := make([]uint32, hwvl)
		for i := range v {
			v[i] = uint32(i*(r+3)) ^ uint32(r)<<20
		}
		regs[r] = v
	}
	// v0 enables the merge into vd at elem; a <= b there, so sel is 0 and
	// only the merge's second pass writes s5; the second instruction's
	// operands leave a different minimum, 0x2cec, in s5.
	regs[0][elem] = 1
	regs[1][elem], regs[2][elem] = 0x100, 0x2000
	regs[4][elem], regs[5][elem] = 0x2cec, 0x2ced
	seq := []isa.Instr{
		{Op: isa.OpMin, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, Masked: true, VL: hwvl},
		{Op: isa.OpMin, Kind: isa.KindVV, Vd: 3, Vs1: 4, Vs2: 5, Masked: true, VL: 64},
		{Op: isa.OpMin, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, Masked: true, VL: hwvl},
	}
	golden := make([]uint32, hwvl)
	clean := newDifferential(t, n, hwvl, nil, regs)
	var before uint64
	for i, in := range seq {
		if i == len(seq)-1 {
			before = clean.full.Profile().Accesses
		}
		clean.exec(fmt.Sprintf("fault-free step %d", i), in, golden)
	}
	after := clean.full.Profile().Accesses
	if want := clean.full.Register(3)[elem]; want != 0x100 {
		t.Fatalf("fault-free v3 element %d = %#x, want min(0x100, 0x2000)", elem, want)
	}

	// Flip sel at every access of the third instruction; the ones between
	// its two mask loads leave the second instruction's minimum in vd.
	sel := uprog.NewLayout(n).ScratchRow(4, 0)
	var stale []uint64
	for s := before; s < after; s++ {
		f := &faults.Fault{Kind: faults.KindBitFlip, Row: sel, Col: elem * n, Seq: s}
		d := newDifferential(t, n, hwvl, f, regs)
		for i, in := range seq {
			d.exec(fmt.Sprintf("flip at access %d, step %d", s, i), in, golden)
		}
		if d.full.Register(3)[elem] == 0x2cec {
			stale = append(stale, s)
		}
	}
	if len(stale) == 0 {
		t.Fatalf("no flip in accesses [%d,%d) left the stale s5 value in v3 element %d: the test no longer reaches the hazard", before, after, elem)
	}
	t.Logf("flips at accesses %v (of [%d,%d)) leave the stale s5 value", stale, before, after)
}
