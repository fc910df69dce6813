// Package cpu provides trace-driven timing models of the scalar cores of
// Table III: the single-issue in-order core (IO) and the 8-wide out-of-order
// core (O3). Both are instances of one windowed limit model: instructions
// issue at up to Width per cycle, in-flight instructions are bounded by a
// reorder window, and memory operations resolve through the timed cache
// hierarchy — so an O3 core overlaps misses up to the window and MSHR
// limits, while the in-order core (window of 1) exposes every load's full
// latency, the behavioral difference the paper's baselines hinge on.
package cpu

import (
	"repro/internal/mem"
	"repro/internal/probe"
)

// Config parameterizes a core model.
type Config struct {
	Name       string
	Width      int   // issue width (instructions per cycle)
	Window     int   // in-flight instruction window (ROB)
	MemPorts   int   // memory operations issued per cycle (LSU ports)
	MulLatency int64 // integer multiply/divide latency
	// ClockScale stretches the core's own cycle time relative to the
	// base-clock time unit the memory system uses. EVE-16/32 slow the whole
	// chip's SRAM-limited clock (§VI-B, §VII-B: the cycle-time penalty
	// "affects its scalar performance"); memory latencies are absolute and
	// unaffected. Zero means 1.0.
	ClockScale float64
}

func (c Config) scale() float64 {
	if c.ClockScale <= 0 {
		return 1
	}
	return c.ClockScale
}

// Table III core configurations. The in-order core is single-issue but its
// L1D has 16 MSHRs (Table III), so a small window lets independent hits
// pipeline and adjacent misses overlap slightly, as a real stall-on-use
// in-order pipeline does; the O3 core overlaps misses across its full
// reorder window.
var (
	IOConfig = Config{Name: "IO", Width: 1, Window: 4, MemPorts: 1, MulLatency: 3}
	O3Config = Config{Name: "O3", Width: 8, Window: 192, MemPorts: 2, MulLatency: 3}
)

// windowEntry compresses consecutive completions: count instructions whose
// completion time is ≤ done.
type windowEntry struct {
	count int
	done  int64
}

// Core is the trace-driven core model.
type Core struct {
	cfg Config
	mh  *mem.Hierarchy

	issue    float64 // sub-cycle issue clock
	memIssue float64 // sub-cycle LSU-port clock
	maxDone  int64   // latest completion so far
	window   []windowEntry
	head     int // index of the oldest live window entry
	inFlight int

	Insts  uint64
	Loads  uint64
	Stores uint64

	loadLat probe.DistValue // load-to-use latency through the hierarchy
	tr      probe.Emitter
}

// SetTracer attaches a per-run event tracer; the core traces under the
// "core" component path. A nil tracer disables emission entirely.
func (c *Core) SetTracer(tr probe.Tracer) { c.tr = probe.NewEmitter(tr, "core") }

// ProbeStats implements probe.Source.
func (c *Core) ProbeStats(s *probe.Scope) {
	s.CounterU("insts", c.Insts)
	s.CounterU("loads", c.Loads)
	s.CounterU("stores", c.Stores)
	s.Counter("cycles", c.Now())
	s.Dist("load_latency", c.loadLat)
}

// ProbeGauges implements probe.GaugeSource: how many operations the
// reorder window holds in flight at cycle now.
func (c *Core) ProbeGauges(s *probe.Scope, now int64) {
	s.Counter("inflight", int64(c.inFlight))
}

// New returns a core over the given memory hierarchy.
func New(cfg Config, mh *mem.Hierarchy) *Core {
	return &Core{cfg: cfg, mh: mh}
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Now reports the core's current time: the cycle by which everything issued
// so far has both issued and completed.
func (c *Core) Now() int64 {
	t := int64(c.issue)
	if c.maxDone > t {
		t = c.maxDone
	}
	return t
}

// IssueTime reports the raw issue clock, before completion draining — the
// time the next instruction could enter the pipeline.
func (c *Core) IssueTime() int64 { return int64(c.issue) }

// AdvanceTo stalls the core until at least time t (used when the commit
// stage blocks on a vector-engine response, §V-A).
func (c *Core) AdvanceTo(t int64) {
	if float64(t) > c.issue {
		c.issue = float64(t)
	}
	if t > c.maxDone {
		c.maxDone = t
	}
}

// reserve admits n instructions into the window, stalling the issue clock
// while the window is full of incomplete instructions, and returns the issue
// time of the batch's first instruction.
func (c *Core) reserve(n int) int64 {
	// Drain completed entries as of the current issue clock.
	for c.head < len(c.window) && c.window[c.head].done <= int64(c.issue) {
		c.inFlight -= c.window[c.head].count
		c.head++
	}
	// If admitting n would exceed the window, wait for the oldest entries.
	for c.inFlight+n > c.cfg.Window && c.head < len(c.window) {
		e := c.window[c.head]
		if float64(e.done) > c.issue {
			c.issue = float64(e.done)
		}
		c.inFlight -= e.count
		c.head++
	}
	return int64(c.issue)
}

// retire records a batch's completion in the window. When the backing
// array is full and at least half drained, it first compacts the drained
// prefix away instead of growing, so the array stays within a small
// multiple of the live entries, of which there are at most Window+1.
func (c *Core) retire(n int, done int64) {
	if len(c.window) == cap(c.window) && c.head*2 >= len(c.window) {
		c.window = c.window[:copy(c.window, c.window[c.head:])]
		c.head = 0
	}
	//evelint:allow hotalloc -- amortized: the array grows only while more than half of it is live
	c.window = append(c.window, windowEntry{count: n, done: done})
	c.inFlight += n
	if done > c.maxDone {
		c.maxDone = done
	}
}

// Ops executes n simple single-cycle instructions.
func (c *Core) Ops(n int) {
	if n <= 0 {
		return
	}
	c.Insts += uint64(n)
	at := c.reserve(n)
	c.issue += float64(n) * c.cfg.scale() / float64(c.cfg.Width)
	c.retire(n, int64(c.issue)+1)
	if c.tr.On() {
		c.tr.Emit(probe.Event{Kind: probe.KInstr, Name: "ops", Begin: at, End: int64(c.issue), Aux: int64(n)})
	}
}

// Muls executes n multiply/divide instructions.
func (c *Core) Muls(n int) {
	if n <= 0 {
		return
	}
	c.Insts += uint64(n)
	at := c.reserve(n)
	c.issue += float64(n) * c.cfg.scale() / float64(c.cfg.Width)
	c.retire(n, int64(float64(c.cfg.MulLatency)*c.cfg.scale())+int64(c.issue))
	if c.tr.On() {
		c.tr.Emit(probe.Event{Kind: probe.KInstr, Name: "muls", Begin: at, End: int64(c.issue), Aux: int64(n)})
	}
}

// memReserve rates memory operations through the LSU ports on top of the
// normal issue reservation, returning the access time.
func (c *Core) memReserve() int64 {
	at := c.reserve(1)
	c.issue += c.cfg.scale() / float64(c.cfg.Width)
	ports := c.cfg.MemPorts
	if ports <= 0 {
		ports = 1
	}
	if c.memIssue < c.issue {
		c.memIssue = c.issue
	}
	c.memIssue += c.cfg.scale() / float64(ports)
	// Port pressure delays the access (and, through the window, eventually
	// the front end) without stalling independent non-memory work.
	if t := int64(c.memIssue); t > at {
		return t
	}
	return at
}

// Load executes one scalar load through the hierarchy.
func (c *Core) Load(addr uint64) {
	c.Insts++
	c.Loads++
	at := c.memReserve()
	r := c.mh.CoreAccess(addr, false, at)
	c.loadLat.Observe(r.Done - at)
	c.retire(1, r.Done)
	c.tr.SpanAddr(probe.KInstr, "load", at, r.Done, addr)
}

// Store executes one scalar store; stores retire from a write buffer without
// stalling, but still occupy cache bandwidth.
func (c *Core) Store(addr uint64) {
	c.Insts++
	c.Stores++
	at := c.memReserve()
	c.mh.CoreAccess(addr, true, at)
	c.retire(1, at+1)
	c.tr.SpanAddr(probe.KInstr, "store", at, at+1, addr)
}
