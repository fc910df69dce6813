package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// wallClock is the untimed-run observer: it keeps every cell's wall time,
// as the sweep hands it to Observer.CellDone, by the cell's index in the
// pass (counting across the sweeps of a pass, as faults.Run makes two).
type wallClock struct {
	mu     sync.Mutex
	offset int
	walls  map[int]time.Duration
}

func newWallClock() *wallClock { return &wallClock{walls: map[int]time.Duration{}} }

func (o *wallClock) CellStart(int, string, string) {}
func (o *wallClock) CellDone(i, _, _ int, _ sim.Result, wall time.Duration) {
	o.mu.Lock()
	o.walls[o.offset+i] = wall
	o.mu.Unlock()
}

func (o *wallClock) SweepDone(_, total int) {
	o.mu.Lock()
	o.offset += total
	o.mu.Unlock()
}

// countedStats are the component counters the traced run sums over a
// pass's cells. They are exact, so a host-speed change must leave them be.
var countedStats = []string{
	"core.insts", "l1d.accesses", "l1d.misses", "l2.misses", "llc.misses",
	"l2.mshr.stall_cycles", "dram.reads", "eve.instrs",
}

// spanObserver is the traced-run observer: one "sweep" span per sweep
// (faults.Run makes two) and one "sweep.cell" span per cell, plus the
// summed component counters. Cell IDs number cells in pass order across
// sweeps, matching the layer probes' numbering.
type spanObserver struct {
	t      *tracer
	parent int

	mu     sync.Mutex
	sweep  int // open sweep span, -1 between sweeps
	offset int // cells in earlier sweeps of the pass
	starts map[int]time.Time
	busy   time.Duration // summed cell wall time
	counts map[string]int64
}

func newSpanObserver(t *tracer, parent int) *spanObserver {
	return &spanObserver{t: t, parent: parent, sweep: -1, starts: map[int]time.Time{}, counts: map[string]int64{}}
}

func (o *spanObserver) CellStart(i int, _, _ string) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sweep < 0 {
		o.sweep = o.t.begin("sweep", o.parent, -1)
	}
	o.starts[i] = now
}

func (o *spanObserver) CellDone(i, _, _ int, r sim.Result, wall time.Duration) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.t.record("sweep.cell", o.sweep, o.offset+i, o.starts[i], now)
	o.busy += wall
	for _, name := range countedStats {
		if v, ok := r.Stats.Int(name); ok {
			o.counts[name] += v
		}
	}
}

func (o *spanObserver) SweepDone(_, total int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sweep >= 0 {
		o.t.end(o.sweep)
	}
	o.sweep = -1
	o.offset += total
	clear(o.starts)
}

// discard is an isa.Sink that drops the trace: Kernel.Run on a builder
// with this sink is the functional ISA layer alone.
type discard struct{}

func (discard) Emit(isa.Event) {}

// timedDatapath wraps a fault-campaign datapath and records a span around
// every call into it.
type timedDatapath struct {
	dp           *faults.Datapath
	t            *tracer
	parent, cell int
}

func (d *timedDatapath) Exec(in *isa.Instr, golden []uint32) []uint32 {
	start := time.Now()
	out := d.dp.Exec(in, golden)
	d.t.record("faults.exec", d.parent, d.cell, start, time.Now())
	return out
}

func (d *timedDatapath) Read(r int) []uint32 {
	start := time.Now()
	out := d.dp.Read(r)
	d.t.record("faults.read", d.parent, d.cell, start, time.Now())
	return out
}

// probeTotals is what the layer probes count besides spans.
type probeTotals struct {
	funcInstrs, simInstrs uint64
	failed                int
}

// probeCells re-runs every cell of a pass serially, one span around each
// public call into a layer:
//
//	cell
//	├── mem.flat_new      a standalone mem.NewFlat(64 MiB)
//	├── isa.functional    Kernel.Run on an isa.Builder whose sink discards
//	│   └── mem.flat_new  the isa.Builder's own flat memory
//	└── sim.run           sim.Run, or sim.RunDatapath on a timed datapath
//	    ├── faults.exec   (*faults.Datapath).Exec
//	    └── faults.read   (*faults.Datapath).Read
//
// A cell fails if its functional run does not validate or its simulation
// differs from the pass's checked output.
func probeCells(t *tracer, cells []cell) probeTotals {
	var pt probeTotals
	for id, c := range cells {
		root := t.begin("cell", -1, id)

		s := t.begin("mem.flat_new", root, id)
		standalone := mem.NewFlat(64 << 20)
		t.end(s)
		runtime.KeepAlive(standalone)

		fn := t.begin("isa.functional", root, id)
		s = t.begin("mem.flat_new", fn, id)
		flat := mem.NewFlat(64 << 20)
		t.end(s)
		vl, vector := hwvl(c.cfg)
		b := isa.NewBuilder(flat, vl, discard{})
		err := c.kernel.Run(b, vector)()
		t.end(fn)
		pt.funcInstrs += b.Mix().DynamicInstrs()
		if err != nil {
			pt.failed++
			warn("probe %s: functional run: %v", c.label, err)
		}

		s = t.begin("sim.run", root, id)
		var r sim.Result
		var sum uint64
		if c.datapath {
			r, sum = sim.RunDatapath(c.cfg, c.kernel, func(hwvl int) isa.Datapath {
				dp := faults.NewDatapath(c.cfg.N, hwvl, c.cfg.MaxUProgCycles)
				if c.arm != nil {
					dp.Arm(*c.arm)
				}
				return &timedDatapath{dp: dp, t: t, parent: s, cell: id}
			})
		} else {
			r = sim.Run(c.cfg, c.kernel)
		}
		t.end(s)
		t.end(root)
		pt.simInstrs += r.Mix.DynamicInstrs()
		switch {
		case c.datapath && (r.Cycles != c.cycles || sum != c.checksum):
			pt.failed++
			warn("probe %s: cycles %d checksum %x, pass had %d %x", c.label, r.Cycles, sum, c.cycles, c.checksum)
		case !c.datapath && r.Err != nil:
			pt.failed++
			warn("probe %s: %v", c.label, r.Err)
		}
	}
	return pt
}

// replayJournal times campaign.Create and one (*Journal).Append per record,
// fsyncing every append as the campaign does, into a scratch journal.
func replayJournal(t *tracer, dir string, recs []campaign.Record) error {
	path := filepath.Join(dir, fmt.Sprintf("replay-%d.journal", os.Getpid()))
	defer os.Remove(path)
	root := t.begin("campaign.replay", -1, -1)
	defer t.end(root)
	s := t.begin("campaign.create", root, -1)
	j, err := campaign.Create(path, 1)
	t.end(s)
	if err != nil {
		return err
	}
	for i, rec := range recs {
		s := t.begin("campaign.append", root, i)
		err := j.Append(rec)
		t.end(s)
		if err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}
