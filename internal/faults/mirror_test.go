package faults_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/uprog"
	"repro/internal/workloads"
)

// mirrorOp is one builder call FuzzMirrorSync may issue: vd, vs1 and vs2
// are registers, x the scalar, and base the start of the data region. It
// returns the scalar a vmv.x.s reads, zero for every other op.
type mirrorOp struct {
	name string
	run  func(b *isa.Builder, vd, vs1, vs2 int, x uint32, base uint64) uint32
}

// vv and vx adapt the builder's register-register and register-scalar ops.
func vv(name string, f func(b *isa.Builder, vd, vs1, vs2 int)) mirrorOp {
	return mirrorOp{name, func(b *isa.Builder, vd, vs1, vs2 int, _ uint32, _ uint64) uint32 {
		f(b, vd, vs1, vs2)
		return 0
	}}
}

func vx(name string, f func(b *isa.Builder, vd, vs1 int, x uint32)) mirrorOp {
	return mirrorOp{name, func(b *isa.Builder, vd, vs1, _ int, x uint32, _ uint64) uint32 {
		f(b, vd, vs1, x)
		return 0
	}}
}

// offset places a unit-stride access inside the data region: x selects the
// first of VL words among the region's first HWVL.
func offset(b *isa.Builder, base uint64, x uint32) uint64 {
	return base + 4*uint64(x%uint32(b.HWVL()))
}

// indexed bounds register vidx to byte offsets of words in the data region
// (a vand.vx, itself a micro-program), then runs the indexed access.
func indexed(b *isa.Builder, vidx int, f func()) {
	b.AndVX(vidx, vidx, uint32(8*b.HWVL()-4))
	f()
}

// mirrorOps mixes the builder's micro-program (ROM) ops with every
// consumer that syncs a register from the datapath, and the data-port
// installs.
var mirrorOps = []mirrorOp{
	vv("vadd.vv", (*isa.Builder).Add), vv("vsub.vv", (*isa.Builder).Sub),
	vv("vand.vv", (*isa.Builder).And), vv("vor.vv", (*isa.Builder).Or), vv("vxor.vv", (*isa.Builder).Xor),
	vx("vadd.vx", (*isa.Builder).AddVX), vx("vrsub.vx", (*isa.Builder).RSubVX), vx("vxor.vx", (*isa.Builder).XorVX),
	vv("vmin.vv", (*isa.Builder).Min), vv("vmaxu.vv", (*isa.Builder).MaxU), vx("vmax.vx", (*isa.Builder).MaxVX),
	vx("vsll.vx", (*isa.Builder).SllVX), vx("vsra.vx", (*isa.Builder).SraVX), vv("vsrl.vv", (*isa.Builder).Srl),
	vv("vmul.vv", (*isa.Builder).Mul), vv("vmacc.vv", (*isa.Builder).Macc), vx("vmacc.vx", (*isa.Builder).MaccVX),
	vv("vdivu.vv", (*isa.Builder).DivU), vv("vmslt.vv", (*isa.Builder).MSlt), vx("vmseq.vx", (*isa.Builder).MSeqVX),
	vv("vsadd.vv", (*isa.Builder).SAdd), vv("vssubu.vv", (*isa.Builder).SSubU),
	vv("vmerge.vvm", (*isa.Builder).Merge), vv("vmv.v.v", func(b *isa.Builder, vd, vs1, _ int) { b.Mv(vd, vs1) }),
	vx("vmv.v.x", func(b *isa.Builder, vd, _ int, x uint32) { b.MvVX(vd, x) }),
	vx("vid.v", func(b *isa.Builder, vd, _ int, _ uint32) { b.VId(vd) }),
	{"vle32", func(b *isa.Builder, vd, _, _ int, x uint32, base uint64) uint32 {
		b.Load(vd, offset(b, base, x))
		return 0
	}},
	{"vse32", func(b *isa.Builder, vs, _, _ int, x uint32, base uint64) uint32 {
		b.Store(vs, offset(b, base, x))
		return 0
	}},
	{"vluxei32", func(b *isa.Builder, vd, vidx, _ int, _ uint32, base uint64) uint32 {
		indexed(b, vidx, func() { b.LoadIdx(vd, base, vidx) })
		return 0
	}},
	{"vsuxei32", func(b *isa.Builder, vs, vidx, _ int, _ uint32, base uint64) uint32 {
		indexed(b, vidx, func() { b.StoreIdx(vs, base, vidx) })
		return 0
	}},
	vv("vredsum", (*isa.Builder).RedSum), vv("vredmin", (*isa.Builder).RedMin),
	vv("vredmax", (*isa.Builder).RedMax), vv("vredminu", (*isa.Builder).RedMinU),
	vx("vmv.s.x", func(b *isa.Builder, vd, _ int, x uint32) { b.MvSX(vd, x) }),
	{"vmv.x.s", func(b *isa.Builder, _, vs, _ int, _ uint32, _ uint64) uint32 { return b.MvXS(vs) }},
	vx("vslide1up", (*isa.Builder).Slide1Up), vx("vslide1down", (*isa.Builder).Slide1Down),
	vv("vrgather", (*isa.Builder).RGather),
}

// mirrorInstr is one decoded FuzzMirrorSync instruction.
type mirrorInstr struct {
	op           mirrorOp
	vd, vs1, vs2 int
	masked       bool
	vl           int
	x            uint32
}

// decodeMirrorProg decodes prog five bytes an instruction: op, vd (bits
// 0-2) vs1 (bits 3-5) and masked (bit 6), vs2 (bits 0-2), VL (scaled from
// 0..255 to 0..hwvl) and the scalar.
func decodeMirrorProg(prog []byte, hwvl, maxInstrs int) []mirrorInstr {
	var instrs []mirrorInstr
	for len(prog) >= 5 && len(instrs) < maxInstrs {
		b := prog[:5]
		prog = prog[5:]
		instrs = append(instrs, mirrorInstr{
			op:     mirrorOps[int(b[0])%len(mirrorOps)],
			vd:     int(b[1] & 7),
			vs1:    int(b[1] >> 3 & 7),
			vs2:    int(b[2] & 7),
			masked: b[1]&0x40 != 0,
			vl:     int(b[3]) * hwvl / 255,
			x:      uint32(b[4]) * 0x01010101,
		})
	}
	return instrs
}

// encodeMirrorInstr is decodeMirrorProg's inverse for one instruction, at
// VL = vlByte·hwvl/255.
func encodeMirrorInstr(op string, vd, vs1, vs2 int, vlByte, x byte) []byte {
	i := slices.IndexFunc(mirrorOps, func(o mirrorOp) bool { return o.name == op })
	if i < 0 {
		panic("no mirror op " + op)
	}
	return []byte{byte(i), byte(vd | vs1<<3), byte(vs2), vlByte, x}
}

// mirrorRun is one builder on a datapath, over a small flat memory whose
// data region is filled from a seed.
type mirrorRun struct {
	b    *isa.Builder
	dp   *faults.Datapath
	base uint64
}

const mirrorMem = 1 << 14

// newMirrorRun arms f, if any, on a new datapath and attaches it to the
// builder through wrap, which may substitute an oracle for it.
func newMirrorRun(n, hwvl int, wrap func(*faults.Datapath) isa.Datapath, f *faults.Fault, dataSeed int64) *mirrorRun {
	m := mem.NewFlat(mirrorMem)
	base := m.AllocU32(2 * hwvl)
	rng := rand.New(rand.NewSource(dataSeed))
	for i := 0; i < 2*hwvl; i++ {
		m.StoreU32(base+uint64(4*i), rng.Uint32())
	}
	r := &mirrorRun{b: isa.NewBuilder(m, hwvl, nil), dp: faults.NewDatapath(n, hwvl, 0), base: base}
	if f != nil {
		r.dp.Arm(*f)
	}
	r.b.SetDatapath(wrap(r.dp))
	return r
}

// The datapaths newMirrorRun can attach: the Datapath itself, and the
// always-read and always-live oracles over it.
func direct(dp *faults.Datapath) isa.Datapath { return dp }

func alwaysRead(dp *faults.Datapath) isa.Datapath {
	return faults.AlwaysRead{AlwaysLive: faults.AlwaysLive{Datapath: dp}}
}

func alwaysLive(dp *faults.Datapath) isa.Datapath { return faults.AlwaysLive{Datapath: dp} }

// step issues in and reports the scalar it read and, if it panicked (an
// out-of-range indexed access), the panic.
func (r *mirrorRun) step(in mirrorInstr) (x uint32, crash string) {
	defer func() {
		if p := recover(); p != nil {
			crash = fmt.Sprint(p)
		}
	}()
	r.b.SetVL(in.vl)
	r.b.SetMasked(in.masked)
	return in.op.run(r.b, in.vd, in.vs1, in.vs2, in.x, r.base), ""
}

// FuzzMirrorSync holds the datapath's mirror rule — Read skips the data
// port while a register's cells are unchanged since the builder adopted
// them — to the always-read oracle. Two builders run the same random
// program, one on the gated datapath and one on the oracle (which also runs
// every instruction live), with the same fault armed on both: micro-program
// ops mixed with every consumer that syncs a register (stores, indexed
// accesses, the reductions, vmv.x.s, the slides, vrgather) and the
// data-port installs, at VLs from 0 to hwvl,
// over v0-v7 with v0 the mask. After every instruction the memory images,
// the scalar read and all 32 registers must agree. kind selects no fault,
// a bit flip, a stuck sense column or a wordline drop; row and col place
// it (Datapath.Arm reduces them), and seq places a flip or drop at the
// fraction seq/65536 of the fault-free run's accesses or bit-line
// computes, so seeds keep their timing across factors.
func FuzzMirrorSync(f *testing.F) {
	const n, full = 8, 255
	l := uprog.NewLayout(n)
	seed := func(kind uint8, row, col int, seq uint16, instrs ...[]byte) {
		f.Add(uint8(3), kind, uint16(row), uint16(col), seq, int64(1), slices.Concat(instrs...))
	}
	// Two equal full-VL micro-programs with a flip firing in the middle of
	// the second (3/4 of the accesses): on reg's row segment 1, at element
	// 5, after reg's last write.
	flipRow := func(reg int) int { return l.RegRow(reg, 1) }
	const flipCol, midSecond = 5*n + 2, 3 << 14
	twoAdds := func(vd int) []byte {
		return slices.Concat(encodeMirrorInstr("vadd.vv", vd, 2, 3, full, 0), encodeMirrorInstr("vadd.vv", 7, 2, 3, full, 0))
	}
	load := func(vd int, x byte) []byte { return encodeMirrorInstr("vle32", vd, 0, 0, full, x) }

	// A flip on vd's tail, then a full-VL reduction or vmv.s.x into vd:
	// only element 0 is installed, so vd stays stale and the store must
	// read the flip.
	for _, wb := range [][]byte{
		encodeMirrorInstr("vredsum", 1, 2, 3, full, 0),
		encodeMirrorInstr("vredmax", 1, 2, 3, full, 0),
		encodeMirrorInstr("vmv.s.x", 1, 0, 0, full, 9),
	} {
		seed(1, flipRow(1), flipCol, midSecond, load(2, 0), load(3, 7), twoAdds(1), wb,
			encodeMirrorInstr("vse32", 1, 0, 0, full, 0))
	}
	// A flip on a source register between its write and its store.
	seed(1, flipRow(4), flipCol, midSecond, load(2, 1), load(3, 2), twoAdds(4),
		encodeMirrorInstr("vse32", 4, 0, 0, full, 3))
	// A flip on v0's mask bit in the middle of the second of three adds,
	// then the third, masked, a store of v0 and a reduction of the masked
	// result.
	masked := encodeMirrorInstr("vadd.vv", 6, 2, 3, full, 0)
	masked[1] |= 0x40
	seed(1, l.RegRow(0, 0), 5*n, 1<<15, load(2, 4), load(3, 5), twoAdds(0), masked,
		encodeMirrorInstr("vse32", 0, 0, 0, full, 1),
		encodeMirrorInstr("vredsum", 5, 6, 2, full, 0))
	// Each fault kind over a mixed program at partial VLs.
	mixed := slices.Concat(load(1, 3), load(2, 9),
		encodeMirrorInstr("vmacc.vv", 3, 1, 2, 200, 0),
		encodeMirrorInstr("vsuxei32", 3, 2, 0, 90, 0),
		encodeMirrorInstr("vslide1down", 4, 3, 0, 130, 5),
		encodeMirrorInstr("vrgather", 5, 4, 1, full, 0),
		encodeMirrorInstr("vmv.x.s", 0, 5, 0, 0, 0),
		encodeMirrorInstr("vredminu", 6, 5, 3, 0, 0),
		encodeMirrorInstr("vse32", 6, 0, 0, 40, 2))
	for kind := uint8(0); kind < 4; kind++ {
		seed(kind, l.RegRow(3, 2), 9*n+1, 1<<15, mixed)
	}

	f.Fuzz(func(t *testing.T, nSel, kind uint8, row, col, seq uint16, dataSeed int64, prog []byte) {
		n := []int{1, 2, 4, 8, 16, 32}[int(nSel)%6]
		hwvl := 512 / n
		instrs := decodeMirrorProg(prog, hwvl, 12)

		var fault *faults.Fault
		if k := kind % 4; k != 0 {
			clean := newMirrorRun(n, hwvl, direct, nil, dataSeed)
			for _, in := range instrs {
				if _, crash := clean.step(in); crash != "" {
					break
				}
			}
			p := clean.dp.Profile()
			fault = &faults.Fault{Row: int(row), Col: int(col), Stuck: row&1 != 0}
			switch k {
			case 1:
				fault.Kind, fault.Seq = faults.KindBitFlip, uint64(seq)*p.Accesses>>16
			case 2:
				fault.Kind = faults.KindStuckSA
			case 3:
				fault.Kind, fault.Seq = faults.KindWordlineDrop, uint64(seq)*p.BLCs>>16
			}
		}

		gated := newMirrorRun(n, hwvl, direct, fault, dataSeed)
		oracle := newMirrorRun(n, hwvl, alwaysRead, fault, dataSeed)
		for i, in := range instrs {
			where := fmt.Sprintf("n=%d step %d (%s v%d, v%d, v%d, VL %d, masked %v)", n, i, in.op.name, in.vd, in.vs1, in.vs2, in.vl, in.masked)
			gx, gcrash := gated.step(in)
			ox, ocrash := oracle.step(in)
			if gx != ox || gcrash != ocrash {
				t.Fatalf("%s: read %#x (crash %q), oracle %#x (crash %q)", where, gx, gcrash, ox, ocrash)
			}
			for a := uint64(64); a < mirrorMem; a += 4 {
				if g, o := gated.b.Mem.LoadU32(a), oracle.b.Mem.LoadU32(a); g != o {
					t.Fatalf("%s: memory word %#x = %#x, oracle %#x", where, a, g, o)
				}
			}
			for r := 0; r < 32; r++ {
				g, o := gated.b.VReg(r), oracle.b.VReg(r)
				if e := firstDiff(g, o); e >= 0 {
					t.Fatalf("%s: v%d element %d = %#x, oracle %#x", where, r, e, g[e], o[e])
				}
			}
			if gcrash != "" {
				return
			}
		}
	})
}

// TestUnchangedRegistersAreNotRead pins what the mirror rule saves and
// what it must not. A fault-free run of the small suite on O3+EVE-8 never
// goes to the data port for a Read: every register a consumer syncs is
// unchanged since the builder adopted it. A single bit flip on register
// r's row, after r's last write, costs exactly one full read of r, at its
// next sync, and the store carries the flip; a second store of r reads
// nothing.
func TestUnchangedRegistersAreNotRead(t *testing.T) {
	cfg := sim.Config{Kind: sim.SysO3EVE, N: 8}
	for _, k := range workloads.Small() {
		r, _, dp := runWith(t, cfg, k, nil)
		if r.Err != nil {
			t.Fatalf("%s: %v", k.Name, r.Err)
		}
		if got := dp.PortReads(); got != 0 {
			t.Errorf("%s: fault-free run made %d full port reads, want 0", k.Name, got)
		}
	}

	const n, hwvl, reg, elem, seg, bit = 8, 64, 1, 9, 2, 3
	program := func(f *faults.Fault) (*isa.Builder, *faults.Datapath, uint64, []uint64) {
		b := isa.NewBuilder(mem.NewFlat(1<<14), hwvl, nil)
		base := b.Mem.AllocU32(hwvl)
		dp := faults.NewDatapath(n, hwvl, 0)
		if f != nil {
			dp.Arm(*f)
		}
		b.SetDatapath(dp)
		var marks []uint64 // accesses after each micro-program
		b.VId(2)
		b.AddVX(reg, 2, 0x100) // reg's last write
		marks = append(marks, dp.Profile().Accesses)
		b.Mul(3, 2, 2) // the flip fires here
		marks = append(marks, dp.Profile().Accesses)
		b.Store(reg, base)
		return b, dp, base, marks
	}
	_, _, _, marks := program(nil)
	flip := &faults.Fault{Kind: faults.KindBitFlip, Row: uprog.NewLayout(n).RegRow(reg, seg), Col: elem*n + bit, Seq: (marks[0] + marks[1]) / 2}
	b, dp, base, _ := program(flip)
	if got := dp.PortReads(); got != 1 {
		t.Fatalf("flip on v%d: %d full port reads by its store, want 1", reg, got)
	}
	want := uint32(elem+0x100) ^ 1<<(seg*n+bit)
	if got := b.Mem.LoadU32(base + 4*elem); got != want {
		t.Fatalf("flip on v%d: stored element %d = %#x, want %#x", reg, elem, got, want)
	}
	b.Store(reg, base)
	if got := dp.PortReads(); got != 1 {
		t.Fatalf("flip on v%d: a second store made %d full port reads in all, want 1", reg, got)
	}
}
