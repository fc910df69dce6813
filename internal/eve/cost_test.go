package eve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analytic"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/uprog"
)

// costClasses enumerates one instruction per cost class: every op with a
// micro-program cost, .vv and .vx, masked and unmasked, and every .vx shift
// amount (spelled once in range and once above 31, which the VSU masks).
func costClasses() []isa.Instr {
	var out []isa.Instr
	for op := isa.OpAdd; op <= isa.OpMSgtU; op++ {
		for _, kind := range []isa.OperandKind{isa.KindVV, isa.KindVX} {
			for _, masked := range []bool{false, true} {
				in := isa.Instr{Op: op, Kind: kind, Masked: masked, Vd: 3, Vs1: 1, Vs2: 2}
				shift := op == isa.OpSll || op == isa.OpSrl || op == isa.OpSra
				if !shift || kind != isa.KindVX {
					out = append(out, in)
					continue
				}
				for amt := uint32(0); amt < 64; amt++ {
					in.Scalar = amt
					out = append(out, in)
				}
			}
		}
	}
	for _, op := range []isa.Op{isa.OpMvSX, isa.OpMvXS, isa.OpSetVL, isa.OpFence} {
		out = append(out, isa.Instr{Op: op}, isa.Instr{Op: op, Kind: isa.KindVX})
	}
	return out
}

// watchdogTrip runs f and returns the *uprog.CycleLimitError it panics
// with, or nil if it returns normally.
func watchdogTrip(f func()) (err *uprog.CycleLimitError) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*uprog.CycleLimitError)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	f()
	return nil
}

// TestCostTableMatchesFreshMeasurement holds the process-wide table to the
// per-engine cost model it replaced, at every factor and for every cost
// class. It also pins the watchdog rule: an entry's longest program is
// exactly the budget at which a fresh measurement starts to trip, and below
// it the table trips with the fresh measurement's error.
func TestCostTableMatchesFreshMeasurement(t *testing.T) {
	for _, n := range analytic.Factors {
		tbl := tableFor(n)
		oracle := newCellCostModel(n, 0)
		for _, in := range costClasses() {
			name := fmt.Sprintf("EVE-%d %s kind=%d masked=%v scalar=%d", n, isa.Disassemble(&in), in.Kind, in.Masked, in.Scalar)
			got := tbl.lookup(&in, uprog.DefaultMaxCycles)
			want := oracle.lookup(&in)
			if got.cycles != want.cycles || got.energy != want.energy {
				t.Errorf("%s: table cost (%d cycles, %v energy), fresh measurement (%d, %v)",
					name, got.cycles, got.energy, want.cycles, want.energy)
			}
			if got.longest <= 1 {
				continue // no program, or one too short to bound below
			}
			if err := watchdogTrip(func() { newCellCostModel(n, got.longest).lookup(&in) }); err != nil {
				t.Errorf("%s: a fresh measurement trips at the entry's longest program (%d): %v", name, got.longest, err)
			}
			if c := tbl.lookup(&in, got.longest); c != got {
				t.Errorf("%s: budget %d serves %+v, want the entry %+v", name, got.longest, c, got)
			}
			fresh := watchdogTrip(func() { newCellCostModel(n, got.longest-1).lookup(&in) })
			table := watchdogTrip(func() { tbl.lookup(&in, got.longest-1) })
			if fresh == nil || !reflect.DeepEqual(table, fresh) {
				t.Errorf("%s: under budget %d the table trips with %v, a fresh measurement with %v",
					name, got.longest-1, table, fresh)
			}
		}
	}
}

// costCell is a small instruction stream whose longest program (vmul.vx)
// is much longer than the others.
func costCell(vl int) []isa.Instr {
	return []isa.Instr{
		{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: vl},
		{Op: isa.OpSll, Kind: isa.KindVX, Vd: 4, Vs1: 3, Scalar: 7, VL: vl},
		{Op: isa.OpMax, Kind: isa.KindVV, Vd: 5, Vs1: 4, Vs2: 3, Masked: true, VL: vl},
		{Op: isa.OpMul, Kind: isa.KindVX, Vd: 6, Vs1: 5, Scalar: 3, VL: vl},
		{Op: isa.OpMvXS, Vs1: 6, VL: vl},
	}
}

// runCell handles stream on an engine of factor n with the given watchdog
// budget over table tbl, returning the watchdog error it trips, if any.
func runCell(n, budget int, tbl *costTable) *uprog.CycleLimitError {
	cfg := DefaultConfig(n)
	cfg.MaxUProgCycles = budget
	e := newEngineOn(cfg, mem.NewHierarchy().LLC, tbl)
	return watchdogTrip(func() {
		for _, in := range costCell(e.HWVL()) {
			e.Handle(&in, 0)
		}
		e.Drain()
	})
}

// TestCostTableOrderIndependent: a cell under a tight watchdog budget fails
// with the identical error whether it meets an empty table or one a
// generous cell filled first, and that error is the per-engine cost
// model's. This is the argument that lets the table be process-wide state.
func TestCostTableOrderIndependent(t *testing.T) {
	const n = 8
	oracle := newCellCostModel(n, 0)
	// One cycle short of the multiply program, which every other program
	// of the cell fits: the cell trips at its fourth instruction, after the
	// table has served or filled the first three.
	tight := oracle.lookup(&isa.Instr{Op: isa.OpMul, Kind: isa.KindVV}).cycles - 1

	cold := runCell(n, tight, &costTable{n: n})

	warm := &costTable{n: n}
	if err := runCell(n, 0, warm); err != nil {
		t.Fatalf("a cell under the default budget trips: %v", err)
	}
	afterFill := runCell(n, tight, warm)

	want := watchdogTrip(func() {
		m := newCellCostModel(n, tight)
		for _, in := range costCell(0) {
			m.lookup(&in)
		}
	})
	if want == nil || want.Program != uprog.Mul(oracle.layout, 3, 1, 2, false, false).Name {
		t.Fatalf("budget %d trips the per-engine cost model with %v, want the multiply program", tight, want)
	}
	if !reflect.DeepEqual(cold, want) || !reflect.DeepEqual(afterFill, want) {
		t.Errorf("budget %d: on an empty table the cell trips with %v, after a generous fill with %v; want %v",
			tight, cold, afterFill, want)
	}
}

// TestCostTableConcurrentEngines fills one table from several engines at
// once, each walking the cost classes from a different start, and requires
// every lookup to equal the per-engine model's and every engine to finish
// the same cell at the same time and energy. Run it under -race.
func TestCostTableConcurrentEngines(t *testing.T) {
	const n, workers = 4, 4
	classes := costClasses()
	oracle := newCellCostModel(n, 0)
	want := make([]opCost, len(classes))
	for i := range classes {
		want[i] = oracle.lookup(&classes[i])
	}
	ref := newEngineOn(DefaultConfig(n), mem.NewHierarchy().LLC, &costTable{n: n})
	for _, in := range costCell(ref.HWVL()) {
		ref.Handle(&in, 0)
	}
	refEnd := ref.Drain()

	tbl := &costTable{n: n}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := newEngineOn(DefaultConfig(n), mem.NewHierarchy().LLC, tbl)
			for _, in := range costCell(e.HWVL()) {
				e.Handle(&in, 0)
			}
			if end := e.Drain(); end != refEnd || e.energyReadEq != ref.energyReadEq {
				t.Errorf("worker %d: cell ends at %d with energy %v, want %d and %v",
					w, end, e.energyReadEq, refEnd, ref.energyReadEq)
			}
			for k := range classes {
				i := (k + w*len(classes)/workers) % len(classes)
				got := e.cost.lookup(&classes[i], e.limit)
				if got.cycles != want[i].cycles || got.energy != want[i].energy {
					t.Errorf("worker %d: %s costs (%d, %v), want (%d, %v)", w,
						isa.Disassemble(&classes[i]), got.cycles, got.energy, want[i].cycles, want[i].energy)
				}
			}
		}(w)
	}
	wg.Wait()
}
