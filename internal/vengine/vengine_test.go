package vengine

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

func TestIVExpandsStridedToScalarAccesses(t *testing.T) {
	mh := mem.NewHierarchy()
	core := cpu.New(cpu.O3Config, mh)
	iv := NewIV(core)
	if iv.HWVL() != 4 {
		t.Fatal("IV HWVL must be 4")
	}
	iv.Handle(&isa.Instr{Op: isa.OpLoadStride, Vd: 1, Addr: 0x1000, Stride: 4096, VL: 4}, 0)
	if core.Loads != 4 {
		t.Fatalf("strided load through LSQ issued %d scalar loads, want 4", core.Loads)
	}
	iv.Handle(&isa.Instr{Op: isa.OpLoad, Vd: 1, Addr: 0x2000, VL: 4}, 0)
	if core.Loads != 5 {
		t.Fatalf("aligned unit-stride VL=4 should be one LSQ access, got %d", core.Loads-4)
	}
}

func TestDVOverlapsComputeAndMemory(t *testing.T) {
	mk := func(withLoad, withMul bool) int64 {
		mh := mem.NewHierarchy()
		d := NewDV(DefaultDVConfig(), mh.L2)
		if withLoad {
			d.Handle(&isa.Instr{Op: isa.OpLoad, Vd: 1, Addr: 0x40000, VL: 64}, 0)
		}
		if withMul {
			d.Handle(&isa.Instr{Op: isa.OpMul, Kind: isa.KindVV, Vd: 4, Vs1: 5, Vs2: 6, VL: 64}, 0)
		}
		return d.Drain()
	}
	loadOnly, mulOnly, both := mk(true, false), mk(false, true), mk(true, true)
	if both >= loadOnly+mulOnly {
		t.Errorf("DV failed to overlap: both=%d load=%d mul=%d", both, loadOnly, mulOnly)
	}
}

func TestDVDependencySerializes(t *testing.T) {
	mh := mem.NewHierarchy()
	d := NewDV(DefaultDVConfig(), mh.L2)
	d.Handle(&isa.Instr{Op: isa.OpLoad, Vd: 1, Addr: 0x40000, VL: 64}, 0)
	d.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 2, Vs1: 1, Vs2: 1, VL: 64}, 0)
	dep := d.Drain()

	mh2 := mem.NewHierarchy()
	d2 := NewDV(DefaultDVConfig(), mh2.L2)
	d2.Handle(&isa.Instr{Op: isa.OpLoad, Vd: 1, Addr: 0x40000, VL: 64}, 0)
	d2.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 2, Vs1: 3, Vs2: 3, VL: 64}, 0)
	indep := d2.Drain()
	if dep <= indep {
		t.Errorf("dependent add (%d) should finish no earlier than independent (%d)", dep, indep)
	}
}

func TestDVPipesRunInParallel(t *testing.T) {
	mh := mem.NewHierarchy()
	d := NewDV(DefaultDVConfig(), mh.L2)
	// Independent simple and complex ops use different pipes.
	d.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 1, Vs1: 2, Vs2: 3, VL: 64}, 0)
	d.Handle(&isa.Instr{Op: isa.OpMul, Kind: isa.KindVV, Vd: 4, Vs1: 5, Vs2: 6, VL: 64}, 0)
	par := d.Drain()
	// Two adds contend for the simple pipe.
	mh2 := mem.NewHierarchy()
	d2 := NewDV(DefaultDVConfig(), mh2.L2)
	d2.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 1, Vs1: 2, Vs2: 3, VL: 64}, 0)
	d2.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 4, Vs1: 5, Vs2: 6, VL: 64}, 0)
	same := d2.Drain()
	if par > same {
		t.Errorf("different pipes (%d) should be no slower than same pipe (%d)", par, same)
	}
}

func TestDVFenceAndQueue(t *testing.T) {
	mh := mem.NewHierarchy()
	d := NewDV(DefaultDVConfig(), mh.L2)
	d.Handle(&isa.Instr{Op: isa.OpStore, Vs1: 1, Addr: 0x50000, VL: 64}, 0)
	block := d.Handle(&isa.Instr{Op: isa.OpFence, VL: 64}, 0)
	if block == 0 {
		t.Error("fence should block the core until drain")
	}
	blocked := false
	for i := 0; i < 64; i++ {
		if d.Handle(&isa.Instr{Op: isa.OpDiv, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: 64}, 0) > 0 {
			blocked = true
		}
	}
	if !blocked {
		t.Error("queue back-pressure never engaged")
	}
}

// TestIVFullInstructionSurface drives the remaining IV translation paths.
func TestIVFullInstructionSurface(t *testing.T) {
	mh := mem.NewHierarchy()
	core := cpu.New(cpu.O3Config, mh)
	iv := NewIV(core)
	addrs := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	instrs := []*isa.Instr{
		{Op: isa.OpSetVL, VL: 4},
		{Op: isa.OpStoreStride, Vs1: 1, Addr: 0x9000, Stride: 256, VL: 4},
		{Op: isa.OpLoadIdx, Vd: 2, Addrs: addrs, VL: 4},
		{Op: isa.OpStoreIdx, Vs1: 2, Addrs: addrs, VL: 4},
		{Op: isa.OpDiv, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: 4},
		{Op: isa.OpRedSum, Vd: 4, Vs1: 3, Vs2: 3, VL: 4},
		{Op: isa.OpMvXS, Vs1: 4, VL: 4},
		{Op: isa.OpFence, VL: 4},
		{Op: isa.OpLoad, Vd: 5, Addr: 0x5001, VL: 4}, // line-crossing unit load
	}
	before := core.Insts
	for _, in := range instrs {
		if got := iv.Handle(in, 0); got != 0 {
			t.Fatalf("IV should never block the core, got %d", got)
		}
	}
	if core.Insts <= before {
		t.Fatal("IV issued no core work")
	}
	if iv.Drain() != 0 {
		t.Fatal("IV has no private clock")
	}
}

// TestDVCrossElementAndControl covers DV's remaining instruction classes.
func TestDVCrossElementAndControl(t *testing.T) {
	mh := mem.NewHierarchy()
	d := NewDV(DefaultDVConfig(), mh.L2)
	d.Handle(&isa.Instr{Op: isa.OpSetVL, VL: 64}, 0)
	d.Handle(&isa.Instr{Op: isa.OpRGather, Vd: 1, Vs1: 2, Vs2: 3, VL: 64}, 0)
	d.Handle(&isa.Instr{Op: isa.OpRedSum, Vd: 4, Vs1: 1, Vs2: 1, VL: 64}, 0)
	d.Handle(&isa.Instr{Op: isa.OpMvSX, Vd: 5, VL: 64}, 0)
	block := d.Handle(&isa.Instr{Op: isa.OpMvXS, Vs1: 4, VL: 64}, 0)
	if block <= 0 {
		t.Fatal("vmv.x.s must block on DV")
	}
	d.Handle(&isa.Instr{Op: isa.OpLoadIdx, Vd: 6, Vs2: 3,
		Addrs: []uint64{0x100, 0x2100, 0x4100}, VL: 3}, 0)
	d.Handle(&isa.Instr{Op: isa.OpStoreIdx, Vs1: 6, Vs2: 3,
		Addrs: []uint64{0x100, 0x2100, 0x4100}, VL: 3}, 0)
	d.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 7, Vs1: 6, Vs2: 6, Masked: true, VL: 64}, 0)
	if got := d.Drain(); got <= 0 {
		t.Fatal("DV produced no time")
	}
	if d.Instrs != 8 {
		t.Fatalf("DV saw %d instructions", d.Instrs)
	}
}

// TestDVQueueBlocksOnDepthEarlier pins the VCU queue: while a slot is free
// an instruction does not block, and once QueueDepth instructions wait,
// each blocks until the dispatch time of the one QueueDepth places earlier.
func TestDVQueueBlocksOnDepthEarlier(t *testing.T) {
	for _, depth := range []int{1, 16} {
		cfg := DefaultDVConfig()
		cfg.QueueDepth = depth
		d := NewDV(cfg, mem.NewHierarchy().L2)
		dispatch := func(i int) int64 { return int64(10*i + 7) }
		for i := 0; i < 5*depth+3; i++ {
			want := int64(0)
			if i >= depth {
				want = dispatch(i - depth)
			}
			if got := d.enqueue(dispatch(i)); got != want {
				t.Errorf("depth %d: instruction %d blocks until %d, want %d", depth, i, got, want)
			}
			if occ := min(i+1, depth); d.qLen != occ {
				t.Errorf("depth %d: after instruction %d occupancy %d, want %d", depth, i, d.qLen, occ)
			}
		}
	}
}
