package eve

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/probe"
)

func newEngine(t *testing.T, n int) (*Engine, *mem.Hierarchy) {
	t.Helper()
	h := mem.NewHierarchy()
	return New(DefaultConfig(n), h.LLC), h
}

// snapshot pulls the engine's published counters the way the simulator's
// stats registry does at the end of a run.
func snapshot(e *Engine) probe.Stats {
	reg := probe.NewRegistry()
	reg.Register("eve", e)
	return reg.Snapshot()
}

// counter reads one of the engine's published counters by its name under
// "eve.".
func counter(t *testing.T, e *Engine, name string) int64 {
	t.Helper()
	v, ok := snapshot(e).Int("eve." + name)
	if !ok {
		t.Fatalf("engine publishes no eve.%s counter", name)
	}
	return v
}

// energy reads the engine's published array energy.
func energy(t *testing.T, e *Engine) float64 {
	t.Helper()
	v, ok := snapshot(e).Float("eve.energy.read_eq")
	if !ok {
		t.Fatal("engine publishes no eve.energy.read_eq")
	}
	return v
}

func TestHWVLMatchesTableIII(t *testing.T) {
	want := map[int]int{1: 2048, 2: 2048, 4: 2048, 8: 1024, 16: 512, 32: 256}
	for n, vl := range want {
		e, _ := newEngine(t, n)
		if got := e.HWVL(); got != vl {
			t.Errorf("EVE-%d HWVL = %d, want %d", n, got, vl)
		}
	}
}

func TestArithLatencyOrdering(t *testing.T) {
	// The same add executes faster (in cycles) on a higher parallelization
	// factor; EVE-32's clock penalty shows up in core-cycle durations.
	dur := func(n int) int64 {
		e, _ := newEngine(t, n)
		in := &isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: e.HWVL()}
		e.Handle(in, 0)
		return e.Drain()
	}
	if !(dur(1) > dur(4) && dur(4) > dur(8)) {
		t.Errorf("add duration not decreasing: EVE-1=%d EVE-4=%d EVE-8=%d",
			dur(1), dur(4), dur(8))
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	e, _ := newEngine(t, 8)
	flat := mem.NewFlat(1 << 22)
	base := flat.AllocU32(4 * e.HWVL())
	instrs := []*isa.Instr{
		{Op: isa.OpSetVL, VL: e.HWVL()},
		{Op: isa.OpLoad, Vd: 1, Addr: base, VL: e.HWVL()},
		{Op: isa.OpLoad, Vd: 2, Addr: base + uint64(4*e.HWVL()), VL: e.HWVL()},
		{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: e.HWVL()},
		{Op: isa.OpStore, Vs1: 3, Addr: base, VL: e.HWVL()},
		{Op: isa.OpFence, VL: e.HWVL()},
	}
	for _, in := range instrs {
		e.Handle(in, 0)
	}
	total := e.Drain()
	var got int64
	for _, s := range snapshot(e).Filter("eve.breakdown.") {
		got += s.Int
	}
	if got != total {
		t.Fatalf("breakdown sums to %d, engine time %d", got, total)
	}
	if counter(t, e, "breakdown.busy") == 0 {
		t.Error("no busy cycles recorded")
	}
	if counter(t, e, "breakdown.ld_mem_stall") == 0 {
		t.Error("cold loads should cause ld_mem_stall")
	}
}

func TestDependentAddWaitsForLoad(t *testing.T) {
	e, _ := newEngine(t, 8)
	vl := e.HWVL()
	e.Handle(&isa.Instr{Op: isa.OpLoad, Vd: 1, Addr: 0x10000, VL: vl}, 0)
	afterLoad := counter(t, e, "breakdown.ld_mem_stall")
	e.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 2, Vs1: 1, Vs2: 1, VL: vl}, 0)
	if counter(t, e, "breakdown.ld_mem_stall") <= afterLoad {
		t.Error("dependent add should charge ld_mem_stall while waiting for the load")
	}
}

func TestIndependentComputeOverlapsLoad(t *testing.T) {
	// An arithmetic op on unrelated registers proceeds while a load is in
	// flight: total time ≈ max, not sum.
	mk := func(withLoad, withMul bool) int64 {
		e, _ := newEngine(t, 8)
		vl := e.HWVL()
		if withLoad {
			e.Handle(&isa.Instr{Op: isa.OpLoad, Vd: 1, Addr: 0x40000, VL: vl}, 0)
		}
		if withMul {
			e.Handle(&isa.Instr{Op: isa.OpMul, Kind: isa.KindVV, Vd: 4, Vs1: 5, Vs2: 6, VL: vl}, 0)
		}
		return e.Drain()
	}
	loadOnly, mulOnly, both := mk(true, false), mk(false, true), mk(true, true)
	if both >= loadOnly+mulOnly {
		t.Errorf("independent mul did not overlap the load: both=%d, load=%d, mul=%d",
			both, loadOnly, mulOnly)
	}
}

func TestIndexedLoadGeneratesPerElementRequests(t *testing.T) {
	e, h := newEngine(t, 8)
	vl := 64
	addrs := make([]uint64, vl)
	for i := range addrs {
		addrs[i] = uint64(0x100000 + i*4096) // all on distinct lines
	}
	e.Handle(&isa.Instr{Op: isa.OpLoadIdx, Vd: 1, Vs2: 2, Addrs: addrs, VL: vl}, 0)
	e.Drain()
	if got := h.LLC.Stats().Accesses; got < uint64(vl) {
		t.Errorf("indexed load issued %d LLC requests, want ≥ %d", got, vl)
	}
}

func TestUnitStrideCoalesces(t *testing.T) {
	e, h := newEngine(t, 8)
	vl := 256 // 1 KiB = 16 lines
	e.Handle(&isa.Instr{Op: isa.OpLoad, Vd: 1, Addr: 0x20000, VL: vl}, 0)
	e.Drain()
	if got := h.LLC.Stats().Accesses; got != 16 {
		t.Errorf("unit-stride load of %d elems issued %d requests, want 16", vl, got)
	}
}

func TestLargeStrideDefeatsCoalescing(t *testing.T) {
	e, h := newEngine(t, 8)
	vl := 64
	e.Handle(&isa.Instr{Op: isa.OpLoadStride, Vd: 1, Addr: 0x80000, Stride: 4096, VL: vl}, 0)
	e.Drain()
	if got := h.LLC.Stats().Accesses; got != uint64(vl) {
		t.Errorf("large-stride load issued %d requests, want %d (backprop's pathology)", got, vl)
	}
}

func TestVMUIssueStallUnderMSHRPressure(t *testing.T) {
	e, _ := newEngine(t, 1)
	vl := e.HWVL()
	// A gather over distinct lines floods the 32 LLC MSHRs (Fig 8).
	addrs := make([]uint64, vl)
	for i := range addrs {
		addrs[i] = uint64(0x100000 + i*4096)
	}
	e.Handle(&isa.Instr{Op: isa.OpLoadIdx, Vd: 1, Vs2: 2, Addrs: addrs, VL: vl}, 0)
	e.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 1, VL: vl}, 0)
	e.Drain()
	if counter(t, e, "cycles") <= 0 || counter(t, e, "vmu.issue_stall") <= 0 {
		t.Error("expected VMU issue stalls under MSHR pressure")
	}
}

func TestFenceDrainsStores(t *testing.T) {
	e, _ := newEngine(t, 8)
	vl := e.HWVL()
	e.Handle(&isa.Instr{Op: isa.OpStore, Vs1: 1, Addr: 0x30000, VL: vl}, 0)
	tStore := e.Drain()
	block := e.Handle(&isa.Instr{Op: isa.OpFence, VL: vl}, 0)
	if block < tStore {
		t.Errorf("fence reply %d precedes store drain %d", block, tStore)
	}
}

func TestQueueBackpressure(t *testing.T) {
	e, _ := newEngine(t, 1)
	vl := e.HWVL()
	blocked := false
	for i := 0; i < 64; i++ {
		// Long multiplies pile up in the VCU queue.
		if e.Handle(&isa.Instr{Op: isa.OpMul, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: vl}, 0) > 0 {
			blocked = true
		}
	}
	if !blocked {
		t.Error("64 queued multiplies never exerted back-pressure on the core")
	}
}

func TestMvXSBlocksCore(t *testing.T) {
	e, _ := newEngine(t, 8)
	vl := e.HWVL()
	e.Handle(&isa.Instr{Op: isa.OpMul, Kind: isa.KindVV, Vd: 1, Vs1: 2, Vs2: 3, VL: vl}, 0)
	block := e.Handle(&isa.Instr{Op: isa.OpMvXS, Vs1: 1, VL: vl}, 0)
	if block == 0 {
		t.Error("vmv.x.s must block the core until the value returns")
	}
}

func TestSpawnCostCharged(t *testing.T) {
	e, _ := newEngine(t, 8)
	e.Spawn(500, 0, 4)
	e.Handle(&isa.Instr{Op: isa.OpSetVL, VL: 1}, 0)
	if got := e.Drain(); got < 500 {
		t.Errorf("engine time %d ignores spawn cost", got)
	}
}

func TestMovePenaltyOnlyBelowBalanced(t *testing.T) {
	e1, _ := newEngine(t, 1)
	e4, _ := newEngine(t, 4)
	// v1 and v20 live in different sub-columns for EVE-1.
	in := &isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 20, VL: 64}
	if e1.moveCycles(in) == 0 {
		t.Error("EVE-1 should pay move cycles for cross-group operands")
	}
	if e4.moveCycles(in) != 0 {
		t.Error("EVE-4 should never pay move cycles")
	}
}

// TestStoreDoesNotBlockSubsequentLoads pins the store-buffer decoupling: a
// store whose data depends on long compute must not hold the next strip's
// loads behind it.
func TestStoreDoesNotBlockSubsequentLoads(t *testing.T) {
	e, _ := newEngine(t, 8)
	vl := e.HWVL()
	// Long multiply producing v3, store of v3, then an unrelated load.
	e.Handle(&isa.Instr{Op: isa.OpMul, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: vl}, 0)
	e.Handle(&isa.Instr{Op: isa.OpStore, Vs1: 3, Addr: 0x100000, VL: vl}, 0)
	e.Handle(&isa.Instr{Op: isa.OpLoad, Vd: 4, Addr: 0x200000, VL: vl}, 0)
	loadReady := e.regs[4].memT
	mulDone := e.regs[3].memT
	if loadReady >= mulDone {
		t.Errorf("load data ready at %d, after the multiply completed at %d: store buffer failed to decouple", loadReady, mulDone)
	}
}

// TestEnergyAccumulates sanity-checks the §VI-B energy accounting.
func TestEnergyAccumulates(t *testing.T) {
	e, _ := newEngine(t, 8)
	vl := e.HWVL()
	if energy(t, e) != 0 {
		t.Fatal("energy should start at zero")
	}
	e.Handle(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: vl}, 0)
	addE := energy(t, e)
	if addE <= 0 {
		t.Fatal("add recorded no energy")
	}
	e.Handle(&isa.Instr{Op: isa.OpMul, Kind: isa.KindVV, Vd: 4, Vs1: 1, Vs2: 2, VL: vl}, 0)
	if total := energy(t, e); total < 10*addE {
		t.Errorf("multiply energy (%f total) should dwarf an add (%f)", total, addE)
	}
}

// TestHalfVLUsesHalfTheArrays pins the clock-gating assumption in the
// energy model.
func TestHalfVLUsesHalfTheArrays(t *testing.T) {
	e, _ := newEngine(t, 8)
	full := e.activeArrays(e.HWVL())
	half := e.activeArrays(e.HWVL() / 2)
	if full != 32 || half != 16 {
		t.Errorf("activeArrays: full=%d half=%d, want 32/16", full, half)
	}
	if e.activeArrays(1) != 1 {
		t.Error("single element should activate one array")
	}
}
