// Package sim assembles the simulated systems of Table III — IO, O3, O3+IV,
// O3+DV and O3+EVE-n — and runs benchmark kernels on them: the workload's
// dynamic trace streams from the ISA builder into the scalar core model and
// the attached vector engine, coupled the way the paper couples them
// (commit-time dispatch, queue back-pressure, blocking scalar moves and
// fences), over a shared timed memory hierarchy.
//
// One assembly path: build is the only place simulator state is put
// together — hierarchy, core (with the EVE-n clock penalty), vector engine,
// stats registry, interval sampler, trace sink and ISA builder — and the
// System it returns is the only place EVE spawns and tears down and a
// Result is filled. Run, RunTraced, RunDatapath and NewSystem (behind the
// public eve.Machine) all go through it, so every caller simulates the same
// Table III machine; nothing outside this package calls cpu.New, eve.New,
// vengine.NewIV or vengine.NewDV. Each call builds fresh state, which is
// what the purity contract on Run rests on.
package sim

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/cpu"
	"repro/internal/eve"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/vengine"
	"repro/internal/vreg"
	"repro/internal/workloads"
)

// Kind enumerates the simulated systems.
type Kind int

// Simulated systems (Table III).
const (
	SysIO Kind = iota
	SysO3
	SysO3IV
	SysO3DV
	SysO3EVE
)

// Config selects a system; N is the parallelization factor for SysO3EVE.
type Config struct {
	Kind Kind
	N    int

	// MaxUProgCycles is the per-micro-program watchdog budget for EVE
	// systems; zero selects uprog.DefaultMaxCycles. A tripped watchdog
	// panics with a *uprog.CycleLimitError, which Run recovers into a
	// *SimError. It does not contribute to Name(): two configs differing
	// only in the watchdog simulate the same system.
	MaxUProgCycles int

	// Interval, when positive, samples the stats registry every Interval
	// simulated cycles into Result.Intervals — per-window counter deltas,
	// gauges, and the EVE reconfiguration timeline. Sampling observes, it
	// never perturbs: every simulated byte (cycles, breakdown, stats,
	// memory image) is identical with Interval on or off, which the
	// interval-identity tests enforce. Zero (the default) keeps the fast
	// path: one pointer branch per instruction boundary. Like
	// MaxUProgCycles it does not contribute to Name().
	Interval int64

	// Mem optionally overrides the Table III memory system — cache
	// geometries, MSHR pools, bank counts, DRAM timings. Nil simulates the
	// paper's hierarchy. Design-space exploration (internal/campaign) sweeps
	// these axes per cell; every parameter still flows through a Config
	// struct, so the paramlit provenance discipline holds. Mem is read-only
	// after construction and may be shared across concurrent Run calls; it
	// does not contribute to Name() — campaign cells carry their own
	// content-hashed identity.
	Mem *MemParams
}

// MemParams overrides pieces of the Table III memory system. A zero-value
// cache level inherits that level's Table III configuration (the override's
// Name is likewise forced to the canonical level name so stats paths stay
// stable); zero DRAM fields inherit the DDR4-2400 timings.
type MemParams struct {
	L1D, L2, LLC mem.CacheConfig
	// DRAMLatency is the closed-page access latency in core cycles.
	DRAMLatency int64
	// DRAMCyclesPerLine is the bus occupancy of one 64-byte line transfer.
	DRAMCyclesPerLine float64
}

// hierarchy builds the memory system the config describes: Table III by
// default, with any MemParams overrides applied per level.
func (c Config) hierarchy() *mem.Hierarchy {
	if c.Mem == nil {
		return mem.NewHierarchy()
	}
	pick := func(over, def mem.CacheConfig) mem.CacheConfig {
		if over == (mem.CacheConfig{}) {
			return def
		}
		over.Name = def.Name
		return over
	}
	h := mem.NewHierarchyCfg(
		pick(c.Mem.L1D, mem.L1DConfig),
		pick(c.Mem.L2, mem.L2Config),
		pick(c.Mem.LLC, mem.LLCConfig))
	if c.Mem.DRAMLatency > 0 {
		h.DRAM.Latency = c.Mem.DRAMLatency
	}
	if c.Mem.DRAMCyclesPerLine > 0 {
		h.DRAM.CyclesPerLine = c.Mem.DRAMCyclesPerLine
	}
	return h
}

// Name renders the paper's system label.
func (c Config) Name() string {
	switch c.Kind {
	case SysIO:
		return "IO"
	case SysO3:
		return "O3"
	case SysO3IV:
		return "O3+IV"
	case SysO3DV:
		return "O3+DV"
	case SysO3EVE:
		return fmt.Sprintf("O3+EVE-%d", c.N)
	}
	return "?"
}

// HWVL reports the hardware vector length cfg's builder runs at — its
// vector engine's, or 1 on a scalar-only system — without assembling the
// system. A recorded Stream replays only on a system of its own HWVL.
func (c Config) HWVL() int {
	switch c.Kind {
	case SysO3IV:
		return vengine.IVHWVL
	case SysO3DV:
		return vengine.DefaultDVConfig().HWVL
	case SysO3EVE:
		return vreg.Standard(c.N).HWVL(c.eveConfig().Arrays)
	}
	return 1
}

// AllSystems lists the full Table III / Fig 6 sweep.
func AllSystems() []Config {
	out := []Config{{Kind: SysIO}, {Kind: SysO3}, {Kind: SysO3IV}, {Kind: SysO3DV}}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		out = append(out, Config{Kind: SysO3EVE, N: n})
	}
	return out
}

// Result is one (system, kernel) simulation outcome.
type Result struct {
	System string
	Kernel string
	Cycles int64
	Mix    isa.Mix
	// Stats is the hierarchical end-of-run counter snapshot: every component
	// of the simulated system under its dotted path (core.insts,
	// l2.mshr.stall_cycles, eve.cycles, ...). Pulled once after the
	// run completes, so populating it costs nothing on the simulated path.
	// Empty when the run aborted with a recovered SimError. EVE's Fig 7
	// breakdown, Fig 8 stall fraction, spawn cost and array energy are read
	// from it through internal/metrics.
	Stats probe.Stats
	// Intervals is the cycle-windowed time series when Config.Interval was
	// set: per-window counter deltas, end-of-window gauges, and the EVE
	// reconfiguration timeline. Nil when sampling was off or the run
	// aborted. Window sums reconcile exactly with Stats.
	Intervals *probe.Series
	// MemChecksum is the FNV-1a hash of the flat backing store after the run
	// — the silent-data-corruption signal. Computed by RunTraced and
	// RunDatapath (zero on a crash); plain Run leaves it zero to keep the
	// sweep fast path free of the O(memory) hash.
	MemChecksum uint64
	Err         error // output validation failure, if any
}

// runMemBytes is the size of a benchmark run's flat backing store.
const runMemBytes = 64 << 20

// System is one assembled simulated system: the timed memory hierarchy and
// its flat backing store, the scalar core, the optional vector engine, the
// stats registry and interval sampler that observe them, and the ISA
// builder whose dynamic trace drives them all. Run builds one per call;
// NewSystem hands one out for direct programming (the public eve.Machine).
type System struct {
	cfg     Config
	hier    *mem.Hierarchy
	core    *cpu.Core
	engine  vengine.Engine
	idle    *eve.Engine // the EVE engine until it spawns, then nil
	reg     *probe.Registry
	sampler *probe.Sampler // interval sampling; nil = the fast path
	b       *isa.Builder
}

// build assembles cfg's system over hierarchy h: the core (with the EVE-n
// clock penalty), the engine (EVE from ecfg; ecfg is ignored on other
// systems), the stats registry, the interval sampler, a memBytes flat store
// and the ISA builder. tr, when non-nil, receives every component's trace
// events. sink, when non-nil, is the builder's sink in place of the system
// itself; only a recording run passes one (Record's tee), so every other
// run's builder emits straight into System.Emit. It is the only place
// simulator state is put together; see the package doc.
func build(cfg Config, h *mem.Hierarchy, ecfg eve.Config, memBytes int, tr probe.Tracer, sink isa.Sink) *System {
	coreCfg := cpu.O3Config
	switch cfg.Kind {
	case SysIO:
		coreCfg = cpu.IOConfig
	case SysO3EVE:
		// EVE-16/32 stretch the chip's SRAM-limited cycle time, slowing the
		// scalar core as well (§VII-B).
		coreCfg.ClockScale = analytic.ClockPenalty(cfg.N)
	}
	s := &System{cfg: cfg, hier: h, core: cpu.New(coreCfg, h)}

	// The stats registry pulls counters once after the run; registration is
	// unconditional because it costs nothing on the simulated path. The
	// tracer, by contrast, is only wired when present: an unset probe.Emitter
	// is the zero-overhead fast path.
	s.reg = probe.NewRegistry()
	s.reg.Register("core", s.core)
	h.RegisterStats(s.reg)
	if tr != nil {
		s.core.SetTracer(tr)
		h.SetTracer(tr)
	}

	// The interval sampler is per-run like the registry it reads; nil keeps
	// the instruction-boundary tick a single branch.
	if cfg.Interval > 0 {
		s.sampler = probe.NewSampler(s.reg, cfg.Interval)
	}

	hwvl := 1
	switch cfg.Kind {
	case SysO3IV:
		iv := vengine.NewIV(s.core)
		s.reg.Register("iv", iv)
		s.engine = iv
		hwvl = vengine.IVHWVL
	case SysO3DV:
		dv := vengine.NewDV(vengine.DefaultDVConfig(), h.L2)
		s.reg.Register("dv", dv)
		if tr != nil {
			dv.SetTracer(tr)
		}
		s.engine = dv
		hwvl = dv.HWVL()
	case SysO3EVE:
		e := eve.New(ecfg, h.LLC)
		s.reg.Register("eve", e)
		if tr != nil {
			e.SetTracer(tr)
		}
		e.SetSampler(s.sampler)
		s.engine, s.idle = e, e
		hwvl = e.HWVL()
	}
	if sink == nil {
		sink = s
	}
	s.b = isa.NewBuilder(mem.NewFlat(memBytes), hwvl, sink)
	return s
}

// eveConfig is the EVE engine configuration cfg selects.
func (c Config) eveConfig() eve.Config {
	ecfg := eve.DefaultConfig(c.N)
	ecfg.MaxUProgCycles = c.MaxUProgCycles
	return ecfg
}

// NewSystem assembles cfg's system with a memBytes flat store for direct
// programming through Builder. EVE spawns lazily, when the first vector
// instruction reaches the engine, so it pays the invalidation cost of
// whatever the scalar code left in the partitioned ways (§V-E). Call Finish
// once the program is done.
func NewSystem(cfg Config, memBytes int) *System {
	return build(cfg, cfg.hierarchy(), cfg.eveConfig(), memBytes, nil, nil)
}

// Builder returns the ISA builder that programs the system.
func (s *System) Builder() *isa.Builder { return s.b }

// spawn realizes EVE's ephemerality: the engine materializes out of the
// L2's ways at the core's current cycle, and the L2 charges the
// invalidation of what they held. A no-op once spawned and without EVE.
func (s *System) spawn() {
	e := s.idle
	if e == nil {
		return
	}
	s.idle = nil
	cost := s.hier.SpawnEVE()
	e.Spawn(cost, s.core.Now(), s.hier.L2.Ways()-s.hier.L2.ActiveWays())
}

// Emit implements isa.Sink: it couples the builder's trace to the core and
// the vector engine.
func (s *System) Emit(ev isa.Event) {
	switch ev.Kind {
	case isa.EvScalar:
		s.core.Ops(ev.N)
	case isa.EvScalarMul:
		s.core.Muls(ev.N)
	case isa.EvLoad:
		s.core.Load(ev.Addr)
	case isa.EvStore:
		s.core.Store(ev.Addr)
	case isa.EvVector:
		if s.engine == nil {
			panic(fmt.Sprintf("sim: vector instruction %v on scalar-only system %s", ev.V.Op, s.cfg.Name()))
		}
		if s.idle != nil {
			s.spawn()
		}
		// Vector instructions dispatch at commit (§V-A); the VCU queue or a
		// blocking reply (vmv.x.s, vmfence) may stall the core.
		if block := s.engine.Handle(ev.V, s.core.Now()); block > 0 {
			s.core.AdvanceTo(block)
		}
	}
	// Instruction boundaries are the interval clock: the simulation is
	// event-driven, so this is the natural deterministic place to notice a
	// window edge passing. Reading the clock perturbs nothing.
	if s.sampler != nil {
		s.sampler.Tick(s.core.Now())
	}
}

// Finish drains all in-flight work, tears a spawned EVE down, returns the
// caches' tag pages to the free list and returns the run's result; Kernel
// and Err are left for the caller. The system must not be driven
// afterwards: its caches panic if it is.
func (s *System) Finish() Result {
	res := Result{System: s.cfg.Name(), Mix: s.b.Mix(), Cycles: s.core.Now()}
	if s.engine != nil {
		if d := s.engine.Drain(); d > res.Cycles {
			res.Cycles = d
		}
	}
	// A spawned engine's ephemeral lifetime ends here: it returns its
	// borrowed L2 ways to the partition. The restore itself changes no
	// counters (returned ways come back invalid, §V-E), so the simulated
	// bytes stay identical whether or not anyone watches the timeline.
	if e, ok := s.engine.(*eve.Engine); ok && s.idle == nil {
		s.hier.TeardownEVE()
		e.Teardown(res.Cycles)
	}
	if s.sampler != nil {
		res.Intervals = s.sampler.Finish(res.Cycles)
	}
	res.Stats = s.reg.Snapshot()
	// The snapshot holds everything the caches tell; their tag pages go
	// back to the free list for the next system to take.
	s.hier.Release()
	return res
}

// Run simulates one kernel on one system.
//
// Purity contract: Run builds every piece of simulator state it touches —
// memory hierarchy, flat backing store, core model, vector engine,
// workload inputs — per call, reads only immutable package-level tables
// (Table III configs, encoding maps), and is fully deterministic in
// (cfg, k). Two process-wide stores are shared, and neither can reach a
// result: EVE's micro-program cost table memoizes a pure function, and
// mem's free list of tag pages hands out pages zeroed. Concurrent Run calls are therefore
// independent and race-free; internal/sweep relies on this to parallelize
// the grid, and TestConcurrentRunsArePure plus the determinism test in
// internal/sweep enforce it under the race detector.
func Run(cfg Config, k *workloads.Kernel) Result {
	return run(cfg, k, runOpts{})
}

// RunTraced is Run with observability attached: every component's trace
// events are delivered to tr (nil is allowed and traces nothing), and the
// result additionally carries the flat-memory checksum. Apart from the
// checksum field, a traced run must produce a Result identical to Run's —
// probes observe, they never perturb — which the determinism regression
// test enforces across all systems.
func RunTraced(cfg Config, k *workloads.Kernel, tr probe.Tracer) Result {
	return run(cfg, k, runOpts{tracer: tr, checksum: true})
}

// RunDatapath simulates one kernel on one system with the vector unit's
// execution re-routed onto an alternate substrate: newDP is called with the
// system's hardware vector length and the returned datapath is attached to
// the ISA builder (isa.Builder.SetDatapath). The second return value is the
// final flat-memory checksum when the run completed (zero on a crash) —
// the silent-data-corruption signal fault campaigns compare against a
// fault-free baseline. A nil newDP behaves exactly like Run.
func RunDatapath(cfg Config, k *workloads.Kernel, newDP func(hwvl int) isa.Datapath) (Result, uint64) {
	res := run(cfg, k, runOpts{newDP: newDP, checksum: newDP != nil})
	return res, res.MemChecksum
}

// runOpts bundles the optional per-run attachments.
type runOpts struct {
	newDP    func(hwvl int) isa.Datapath
	tracer   probe.Tracer // nil = no event emission (the fast path)
	checksum bool         // hash the flat store after the run
}

func run(cfg Config, k *workloads.Kernel, opts runOpts) Result {
	return build(cfg, cfg.hierarchy(), cfg.eveConfig(), runMemBytes, opts.tracer, nil).run(k, opts)
}

// run executes kernel k on the system: EVE spawns at cycle 0, the kernel
// streams its trace through the builder, and the output is validated.
func (s *System) run(k *workloads.Kernel, opts runOpts) (res Result) {
	defer func() {
		if p := recover(); p != nil {
			res = s.abort(k.Name, p)
		}
	}()

	s.spawn()
	if opts.newDP != nil {
		s.b.SetDatapath(opts.newDP(s.b.HWVL()))
	}
	err := k.Run(s.b, s.engine != nil)()
	res = s.Finish()
	res.Kernel, res.Err = k.Name, err
	if opts.checksum {
		res.MemChecksum = s.b.Mem.Checksum()
	}
	return res
}

// abort turns a panic p recovered while kernel ran into the run's Result.
// Fault-reachable invariants — a wild memory access, the micro-program
// watchdog — panic with typed errors; those become a recoverable per-cell
// SimError carrying the abort cycle. Anything else is a simulator bug and
// keeps panicking.
func (s *System) abort(kernel string, p any) Result {
	err, subsystem := recoverable(p)
	if err == nil {
		panic(p)
	}
	res := Result{System: s.cfg.Name(), Kernel: kernel}
	res.Err = &SimError{
		System:    res.System,
		Kernel:    res.Kernel,
		Cycle:     s.core.Now(),
		Subsystem: subsystem,
		Err:       err,
	}
	return res
}

// Matrix runs every kernel on every system, returning results indexed
// [kernel][system]. It is the serial reference implementation of the
// sweep: internal/sweep.Matrix produces an identical matrix on a worker
// pool, and the determinism regression test compares the two cell by cell.
func Matrix(systems []Config, kernels []*workloads.Kernel) [][]Result {
	out := make([][]Result, len(kernels))
	for i, k := range kernels {
		out[i] = make([]Result, len(systems))
		for j, s := range systems {
			out[i][j] = Run(s, k)
		}
	}
	return out
}
