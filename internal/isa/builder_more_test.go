package isa

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/mem"
)

// TestBuilderFullSurface exercises every intrinsic against its expected
// semantics on a small vector.
func TestBuilderFullSurface(t *testing.T) {
	b := NewBuilder(mem.NewFlat(1<<20), 8, nil)
	b.SetVL(8)

	set := func(r int, vals ...uint32) {
		copy(b.VReg(r), vals)
	}
	wantv := func(r int, vals ...uint32) {
		t.Helper()
		for i, w := range vals {
			if got := b.VReg(r)[i]; got != w {
				t.Fatalf("v%d[%d] = %#x, want %#x", r, i, got, w)
			}
		}
	}

	set(1, 10, 20, 0x80000000, 0xFFFFFFFF, 5, 6, 7, 8)
	set(2, 3, 2, 1, 2, 5, 9, 2, 1)

	b.Sub(3, 1, 2)
	wantv(3, 7, 18)
	b.SubVX(3, 1, 1)
	wantv(3, 9, 19)
	b.RSubVX(3, 1, 100)
	wantv(3, 90, 80)
	b.AndVX(3, 1, 0xF)
	wantv(3, 10&0xF, 20&0xF)
	b.OrVX(3, 1, 0x100)
	wantv(3, 10|0x100)
	b.XorVX(3, 1, 0xFF)
	wantv(3, 10^0xFF)
	b.Or(3, 1, 2)
	wantv(3, 11, 22)
	b.Xor(3, 1, 2)
	wantv(3, 9, 22)

	b.Min(3, 1, 2)
	wantv(3, 3, 2, 0x80000000) // signed: -2^31 < 1
	b.Max(3, 1, 2)
	wantv(3, 10, 20, 1)
	b.MinU(3, 1, 2)
	wantv(3, 3, 2, 1)
	b.MaxU(3, 1, 2)
	wantv(3, 10, 20, 0x80000000)
	b.MaxVX(3, 1, 7)
	wantv(3, 10, 20, 7, 7)

	b.SllVX(3, 1, 2)
	wantv(3, 40, 80)
	b.SrlVX(3, 1, 1)
	wantv(3, 5, 10, 0x40000000)
	b.SraVX(3, 1, 1)
	wantv(3, 5, 10, 0xC0000000)
	b.Sll(3, 1, 2)
	wantv(3, 10<<3, 20<<2)
	b.Srl(3, 1, 2)
	wantv(3, 10>>3, 20>>2)

	b.MulVX(3, 1, 3)
	wantv(3, 30, 60)
	b.MulH(3, 1, 2)
	wantv(3, 0, 0)
	b.MaccVX(3, 2, 2) // 0 + 2*3, 0 + 2*2 on top of previous zeros... v3 currently {0,0,...}
	wantv(3, 6, 4)
	b.DivU(3, 1, 2)
	wantv(3, 3, 10)
	b.Div(3, 1, 2)
	wantv(3, 3, 10)
	b.DivVX(3, 1, 2)
	wantv(3, 5, 10)

	b.MSeq(3, 1, 2)
	wantv(3, 0, 0)
	b.MSne(3, 1, 2)
	wantv(3, 1, 1)
	b.MSlt(3, 1, 2)
	wantv(3, 0, 0, 1) // signed
	b.MSltU(3, 1, 2)
	wantv(3, 0, 0, 0)
	b.MSltVX(3, 1, 15)
	wantv(3, 1, 0, 1)
	b.MSgtVX(3, 1, 15)
	wantv(3, 0, 1, 0)
	b.MSltUVX(3, 1, 15)
	wantv(3, 1, 0, 0)
	b.MSgtUVX(3, 1, 15)
	wantv(3, 0, 1, 1)
	b.MSeqVX(3, 1, 20)
	wantv(3, 0, 1, 0)

	b.MvVX(3, 42)
	wantv(3, 42, 42)
	b.Mv(4, 3)
	wantv(4, 42, 42)
	b.MvSX(4, 7)
	wantv(4, 7, 42)
	if got := b.MvXS(4); got != 7 {
		t.Fatalf("MvXS = %d", got)
	}

	// Reductions.
	b.VId(5)
	b.MvSX(6, 100)
	b.RedMax(7, 5, 6)
	wantv(7, 100)
	b.MvSX(6, 3)
	b.RedMax(7, 5, 6)
	wantv(7, 7)
	b.RedMin(7, 5, 6)
	wantv(7, 0)
	b.RedMinU(7, 5, 6)
	wantv(7, 0)

	// Strided/indexed stores.
	base := b.Mem.AllocU32(64)
	b.VId(5)
	b.StoreStride(5, base, 8)
	if b.Mem.LoadU32(base+16) != 2 {
		t.Fatal("StoreStride wrong")
	}
	b.SllVX(6, 5, 2) // byte offsets 0,4,8,...
	b.StoreIdx(5, base+128, 6)
	if b.Mem.LoadU32(base+128+12) != 3 {
		t.Fatal("StoreIdx wrong")
	}
	b.Fence()
}

// TestVLBoundaryZeroElements: SetVL(0) leaves operations as no-ops.
func TestVLBoundaryZeroElements(t *testing.T) {
	b := NewBuilder(mem.NewFlat(1<<20), 8, nil)
	copy(b.VReg(3), []uint32{9, 9})
	b.SetVL(0)
	b.MvVX(3, 1)
	if b.VReg(3)[0] != 9 {
		t.Fatal("VL=0 operation touched elements")
	}
}

// TestSlidesAtVLZeroAndOne: at VL 0 a slide writes no element but is still
// emitted, per RVV; at VL 1 it writes only the scalar into element 0.
func TestSlidesAtVLZeroAndOne(t *testing.T) {
	b, c := newB(t, 8)
	b.SetVL(8)
	b.VId(1)
	b.MvVX(2, 9)
	b.MvVX(3, 9)
	b.SetVL(0)
	before := len(c.evs)
	b.Slide1Up(2, 1, 77)
	b.Slide1Down(3, 1, 88)
	if got := len(c.evs) - before; got != 2 {
		t.Fatalf("VL 0 slides emitted %d events, want 2", got)
	}
	for _, ev := range c.evs[before:] {
		if ev.V.VL != 0 {
			t.Fatalf("VL 0 slide emitted at VL %d", ev.V.VL)
		}
	}
	for _, r := range []int{2, 3} {
		if v := b.VReg(r); v[0] != 9 || v[7] != 9 {
			t.Fatalf("VL 0 slide wrote v%d = %v", r, v[:8])
		}
	}
	b.SetVL(1)
	b.Slide1Up(2, 1, 77)
	b.Slide1Down(3, 1, 88)
	if v := b.VReg(2); v[0] != 77 || v[1] != 9 {
		t.Fatalf("VL 1 slide1up = %v, want [77 9 ...]", v[:8])
	}
	if v := b.VReg(3); v[0] != 88 || v[1] != 9 {
		t.Fatalf("VL 1 slide1down = %v, want [88 9 ...]", v[:8])
	}
	// In place (vd == vs) the elements still move one lane.
	b.SetVL(4)
	b.Slide1Up(1, 1, 50)
	if v := b.VReg(1); v[0] != 50 || v[1] != 0 || v[3] != 2 || v[4] != 4 {
		t.Fatalf("in-place slide1up = %v, want [50 0 1 2 4 ...]", v[:8])
	}
	b.Slide1Down(1, 1, 60)
	if v := b.VReg(1); v[0] != 0 || v[2] != 2 || v[3] != 60 || v[4] != 4 {
		t.Fatalf("in-place slide1down = %v, want [0 1 2 60 4 ...]", v[:8])
	}
}

// TestScalarWritebacksAtVLZero: the reductions and vmv.s.x do not update
// vd at VL 0 (RVV 1.0 §14 and §16.1) but are still emitted; at VL 1 they
// write element 0 and nothing else.
func TestScalarWritebacksAtVLZero(t *testing.T) {
	b, c := newB(t, 8)
	b.SetVL(8)
	b.VId(1)
	b.MvVX(2, 9)
	writebacks := []struct {
		name string
		emit func(vd int)
		vl1  uint32 // element 0 at VL 1: v1[0] reduced with v2[0], or the scalar
	}{
		{"vredsum", func(vd int) { b.RedSum(vd, 1, 2) }, 9},
		{"vredmin", func(vd int) { b.RedMin(vd, 1, 2) }, 0},
		{"vredmax", func(vd int) { b.RedMax(vd, 1, 2) }, 9},
		{"vredminu", func(vd int) { b.RedMinU(vd, 1, 2) }, 0},
		{"vmv.s.x", func(vd int) { b.MvSX(vd, 77) }, 77},
	}
	for _, w := range writebacks {
		b.SetVL(8)
		b.MvVX(3, 5)
		b.SetVL(0)
		before := len(c.evs)
		w.emit(3)
		if got := len(c.evs) - before; got != 1 || c.evs[before].V.VL != 0 {
			t.Fatalf("%s at VL 0 emitted %d events, want 1 at VL 0", w.name, got)
		}
		if v := b.VReg(3); v[0] != 5 || v[7] != 5 {
			t.Fatalf("%s at VL 0 wrote vd = %v", w.name, v[:8])
		}
		b.SetVL(1)
		w.emit(3)
		if v := b.VReg(3); v[0] != w.vl1 || v[1] != 5 || v[7] != 5 {
			t.Fatalf("%s at VL 1 = %v, want [%d 5 ...]", w.name, v[:8], w.vl1)
		}
	}
}

// TestRegisterFileHighWater: each register is as wide as the highest VL
// the program used it at (at least doubling), an untouched register holds
// nothing, elements past a register's width read zero, and VReg and a
// datapath see HWVL elements. A program that never calls SetVL runs at the
// initial VL, HWVL.
func TestRegisterFileHighWater(t *testing.T) {
	b := NewBuilder(mem.NewFlat(1<<20), 2048, nil)
	widths := func(want ...int) {
		t.Helper()
		for r, w := range want {
			if got := len(b.regs[r]); got != w {
				t.Fatalf("v%d is %d elements wide, want %d", r, got, w)
			}
		}
	}
	widths(0, 0, 0, 0)
	b.SetVL(256)
	b.VId(1)
	b.SetVL(16)
	b.AddVX(2, 1, 1)
	widths(0, 256, 16, 0)
	b.SetVL(20)
	b.AddVX(2, 1, 1)
	widths(0, 256, 32, 0) // at least doubles
	v := b.VReg(1)
	if len(v) != 2048 || v[255] != 255 || v[256] != 0 || v[2047] != 0 {
		t.Fatalf("VReg(1): %d elements, [255]=%d [256]=%d [2047]=%d; want 2048, 255, 0, 0",
			len(v), v[255], v[256], v[2047])
	}
	widths(0, 2048, 32, 0) // VReg grows its register alone
	if v := b.VReg(2); len(v) != 2048 || v[19] != 20 || v[20] != 0 || v[2047] != 0 {
		t.Fatalf("VReg(2): %d elements, [19]=%d [20]=%d [2047]=%d; want 2048, 20, 0, 0",
			len(v), v[19], v[20], v[2047])
	}

	// A masked op reads a v0 narrower than VL as zero past its width.
	b.SetVL(4)
	b.MvVX(0, 1)
	b.SetVL(8)
	b.SetMasked(true)
	b.MvVX(3, 5)
	b.SetMasked(false)
	if v := b.VReg(3); !slices.Equal(v[:9], []uint32{5, 5, 5, 5, 0, 0, 0, 0, 0}) {
		t.Fatalf("masked vmv.v.x under a 4-wide v0 = %v, want [5 5 5 5 0 ...]", v[:9])
	}

	b = NewBuilder(mem.NewFlat(1<<20), 64, nil)
	b.VId(3)
	b.RedSum(4, 3, 5)
	if got := b.MvXS(4); got != 64*63/2 {
		t.Fatalf("redsum at the initial VL = %d, want %d", got, 64*63/2)
	}

	b = NewBuilder(mem.NewFlat(1<<20), 64, nil)
	b.SetVL(0)
	b.MvSX(1, 7) // not updated at VL 0
	if got := b.MvXS(1); got != 0 {
		t.Fatalf("MvXS at VL 0 = %d, want 0", got)
	}
	widths(0, 1)

	// Attaching a datapath grows no register; from then on a register
	// grows straight to HWVL on first touch, so the datapath exchanges
	// HWVL elements even at a short VL.
	dp := &echoDatapath{}
	b.SetDatapath(dp)
	widths(0, 1, 0)
	b.SetVL(4)
	b.VId(2)
	b.AddVX(3, 2, 1)
	widths(0, 1, 64, 64)
	if !slices.Equal(dp.widths, []int{64, 64}) {
		t.Fatalf("datapath saw golden registers %v elements wide, want [64 64]", dp.widths)
	}
	if v := b.VReg(3); !slices.Equal(v[:5], []uint32{1, 2, 3, 4, 0}) || v[63] != 0 {
		t.Fatalf("v3 = %v, want [1 2 3 4 0 ...]", v[:8])
	}
}

// echoDatapath is a fault-free substrate that adopts the builder's golden
// results; it records the width of each golden register Exec was handed.
type echoDatapath struct{ widths []int }

func (d *echoDatapath) Exec(_ *Instr, golden []uint32) []uint32 {
	d.widths = append(d.widths, len(golden))
	return golden
}

func (d *echoDatapath) Read(int) []uint32 { return nil }

// TestDatapathBuilderAllocatesTouchedRegisters: with a datapath attached,
// a run that touches k registers allocates about k × HWVL words, not the
// 32 × HWVL of the whole file.
func TestDatapathBuilderAllocatesTouchedRegisters(t *testing.T) {
	const hwvl, k = 2048, 3
	m := mem.NewFlat(1 << 20)
	dp := &echoDatapath{widths: make([]int, 0, 64)}
	run := func() {
		dp.widths = dp.widths[:0]
		b := NewBuilder(m, hwvl, nil)
		b.SetDatapath(dp)
		b.SetVL(16)
		b.VId(1)
		b.AddVX(2, 1, 1)
		b.Add(3, 1, 2)
	}
	run()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	const regBytes = hwvl * 4
	if perRun < k*regBytes || perRun > (k+1)*regBytes {
		t.Errorf("a builder touching %d registers allocated %d bytes, want %d to %d (%d registers of %d words)",
			k, perRun, k*regBytes, (k+1)*regBytes, k, hwvl)
	}
	t.Logf("builder touching %d of 32 registers: %d bytes", k, perRun)
}

type discardSink struct{}

func (discardSink) Emit(Event) {}

// TestEmitAllocatesNothing: once the register file, the address buffer and
// the gather scratch have grown, emitting vector instructions — control,
// arithmetic, memory, indexed and cross-element — allocates nothing.
func TestEmitAllocatesNothing(t *testing.T) {
	b := NewBuilder(mem.NewFlat(1<<20), 64, discardSink{})
	base := b.Mem.AllocU32(64)
	emit := func() {
		b.SetVL(64)
		b.VId(1)
		b.SllVX(2, 1, 2)
		b.Load(3, base)
		b.Add(4, 3, 1)
		b.Store(4, base)
		b.LoadIdx(5, base, 2)
		b.StoreIdx(5, base, 2)
		b.RGather(6, 5, 1)
		b.Slide1Up(7, 6, 1)
		b.Slide1Down(7, 7, 2)
		b.RedSum(8, 7, 1)
		b.MvXS(8)
		b.Fence()
	}
	if allocs := testing.AllocsPerRun(10, emit); allocs != 0 {
		t.Fatalf("emitting made %.0f allocations per pass, want 0", allocs)
	}
}
