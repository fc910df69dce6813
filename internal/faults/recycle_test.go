package faults_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/uprog"
	"repro/internal/workloads"
)

// dpRun is what a builder sees of one simulation on a datapath.
type dpRun struct {
	cycles  int64
	sum     uint64
	err     string
	profile faults.Profile
	log     [][]uint32 // every Exec and Read result, in order
}

// runOn simulates k on cfg over the datapath get returns for the builder's
// hardware vector length, with the faults in arm armed.
func runOn(cfg sim.Config, k *workloads.Kernel, get func(hwvl int) *faults.Datapath, arm ...faults.Fault) (dpRun, *faults.Datapath) {
	var dp *faults.Datapath
	tp := &tap{}
	r, sum := sim.RunDatapath(cfg, k, func(hwvl int) isa.Datapath {
		dp = get(hwvl)
		for _, f := range arm {
			dp.Arm(f)
		}
		tp.Datapath = dp
		return tp
	})
	out := dpRun{cycles: r.Cycles, sum: sum, profile: dp.Profile(), log: tp.log}
	if r.Err != nil {
		out.err = r.Err.Error()
	}
	return out, dp
}

// TestRecycledDatapathIsPure: a datapath returned through a campaign's
// free list after an armed cell of each fault kind — a flip on the masked
// min/max merge's scratch row, a stuck column inside VL under k-means'
// multiplies and shifts, a wordline drop — or after a run the micro-program watchdog aborted mid-program with a flip
// and a drop still pending, holds exactly a new datapath's state, apart
// from its decode cache and the buffers every use writes first. And it
// runs a different kernel, unarmed and then armed, as a new datapath
// does: same cycles, checksum, error and Profile, and every Exec and Read
// result the same.
func TestRecycledDatapathIsPure(t *testing.T) {
	const n = 8
	l := uprog.NewLayout(n)
	first, next := workloads.NewPathfinder(4, 1<<10), workloads.NewRedux(1000)
	for _, c := range []struct {
		name   string
		kernel *workloads.Kernel
		budget int // the watchdog's, for every run of the case
		arm    []faults.Fault
	}{
		{"scratch flip", first, 0, []faults.Fault{{Kind: faults.KindBitFlip, Row: l.ScratchRow(5, 0), Col: 3, Seq: 200}}},
		{"stuck column in VL", workloads.NewKMeans(256, 8, 3), 0, []faults.Fault{{Kind: faults.KindStuckSA, Col: 3, Stuck: true}}},
		{"wordline drop", first, 0, []faults.Fault{{Kind: faults.KindWordlineDrop, Seq: 90}}},
		{"watchdog abort", workloads.NewStreamclusterDist(200, 4, 4), 80, []faults.Fault{
			{Kind: faults.KindBitFlip, Row: l.RegRow(1, 0), Col: 5, Seq: 1000},
			{Kind: faults.KindWordlineDrop, Seq: 1000},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := sim.Config{Kind: sim.SysO3EVE, N: n, MaxUProgCycles: c.budget}
			fresh := func(hwvl int) *faults.Datapath { return faults.NewDatapath(n, hwvl, c.budget) }
			dirty, dp := runOn(cfg, c.kernel, fresh, c.arm...)
			if c.budget > 0 && dirty.err == "" {
				t.Fatalf("%s ran to completion under a %d-cycle watchdog", c.kernel.Name, c.budget)
			}
			flip := faults.Fault{Kind: faults.KindBitFlip, Row: l.RegRow(2, 1), Col: 17, Seq: 300}
			for _, arm := range [][]faults.Fault{nil, {flip}} {
				recycled := func(hwvl int) *faults.Datapath {
					if r := faults.Recycle(dp); r != dp {
						t.Fatal("the free list did not hand back the returned datapath")
					}
					if d := diffState(reflect.ValueOf(dp), reflect.ValueOf(fresh(hwvl)), "Datapath"); d != "" {
						t.Errorf("recycled datapath differs from a new one at %s", d)
					}
					return dp
				}
				got, _ := runOn(cfg, next, recycled, arm...)
				want, _ := runOn(cfg, next, fresh, arm...)
				if d := diffRuns(got, want); d != "" {
					t.Errorf("%s on the recycled datapath, armed %v: %s", next.Name, arm, d)
				}
			}
		})
	}
}

// cacheFields are the Datapath fields recycling keeps, or that every use
// writes before it reads: the decode cache and its data_in constants, the
// .vx broadcast rows, and the result and tail buffers.
var cacheFields = map[string]bool{"progs": true, "prologue": true, "topBits": true, "bcast": true, "out": true, "tail": true}

// diffState walks a and b, unexported fields too, and returns the path of
// the first value that differs, or "". Slices and maps compare by content,
// so storage kept with its length cut to zero equals none at all.
func diffState(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return diffState(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := range a.NumField() {
			name := a.Type().Field(i).Name
			if a.Type().Name() == "Datapath" && cacheFields[name] {
				continue
			}
			if d := diffState(a.Field(i), b.Field(i), path+"."+name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (length %d, new %d)", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := diffState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (%d entries, new %d)", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() {
				return path
			} else if d := diffState(a.MapIndex(k), v, path+"[key]"); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.String:
		if a.String() != b.String() {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s (%d, new %d)", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s (%d, new %d)", path, a.Uint(), b.Uint())
		}
	default:
		panic(fmt.Sprintf("diffState: %s has unhandled kind %s", path, a.Kind()))
	}
	return ""
}

// diffRuns describes the first way got differs from want, or returns "".
func diffRuns(got, want dpRun) string {
	switch {
	case got.cycles != want.cycles:
		return fmt.Sprintf("cycles %d, new datapath %d", got.cycles, want.cycles)
	case got.sum != want.sum:
		return fmt.Sprintf("checksum %#x, new datapath %#x", got.sum, want.sum)
	case got.err != want.err:
		return fmt.Sprintf("error %q, new datapath %q", got.err, want.err)
	case got.profile != want.profile:
		return fmt.Sprintf("profile %+v, new datapath %+v", got.profile, want.profile)
	case len(got.log) != len(want.log):
		return fmt.Sprintf("%d Exec/Read results, new datapath %d", len(got.log), len(want.log))
	}
	for i := range got.log {
		if !slices.Equal(got.log[i], want.log[i]) {
			return fmt.Sprintf("Exec/Read result %d differs", i)
		}
	}
	return ""
}

// TestCampaignAllocationBudget bounds what a fault campaign allocates on
// the host per cell. A cell recycles its datapath from the run's free list,
// so it allocates neither the bit-level array nor the circuit stack's rows
// nor its micro-programs again, and its builder grows only the registers
// the kernel touches. Rebuilding the substrate per cell (about 400 KB a
// cell on this campaign) or growing all 32 registers to HWVL (about
// 110 KB) blows the budget.
func TestCampaignAllocationBudget(t *testing.T) {
	const maxBytesPerCell = 128 << 10
	cfg := faults.Config{
		System:         sim.Config{Kind: sim.SysO3EVE, N: 8},
		Kernels:        []*workloads.Kernel{workloads.NewVVAdd(256), workloads.NewRedux(256)},
		SitesPerKernel: 4,
		Seed:           5,
		Workers:        1,
	}
	run := func() {
		if _, err := faults.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the process-wide micro-program cost tables
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	cells := runs * len(cfg.Kernels) * (1 + cfg.SitesPerKernel)
	perCell := (after.TotalAlloc - before.TotalAlloc) / uint64(cells)
	if perCell > maxBytesPerCell {
		t.Errorf("faults.Run allocated %d bytes per cell, budget %d", perCell, maxBytesPerCell)
	}
	t.Logf("faults.Run: %d bytes per cell", perCell)
}
