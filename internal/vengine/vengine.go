// Package vengine provides the two baseline vector units of Table III: the
// integrated vector unit (IV — short vectors executed inside the O3
// pipeline, loosely modeled after mobile-class SVE implementations) and the
// decoupled vector engine (DV — long vectors on dedicated pipes with its own
// VMU, loosely modeled after Tarantula, Fig 5).
package vengine

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/probe"
)

// Engine is the interface the system simulator drives: committed vector
// instructions arrive with the core's current time; Handle returns when the
// core must wait until (0 for none); Drain completes outstanding work and
// returns the engine's finish time (0 for engines with no private clock).
type Engine interface {
	HWVL() int
	Handle(in *isa.Instr, arrival int64) int64
	Drain() int64
}

// IV models the integrated vector unit: 4-element vectors, out-of-order
// issue sharing the control core's pipes and load-store queue (Table III).
// Its timing is entirely the host core's: each vector instruction becomes
// core μops, and constant-stride/indexed memory operations decompose into
// scalar accesses through the LSQ (§VII-A).
type IV struct {
	core *cpu.Core

	Instrs uint64
}

// ProbeStats implements probe.Source. The IV's timing lives entirely in the
// host core, so only the vector instruction count is its own.
func (v *IV) ProbeStats(s *probe.Scope) { s.CounterU("instrs", v.Instrs) }

// IVHWVL is the integrated unit's hardware vector length.
const IVHWVL = 4

// NewIV wraps the control core.
func NewIV(core *cpu.Core) *IV { return &IV{core: core} }

// HWVL implements Engine.
func (v *IV) HWVL() int { return IVHWVL }

// Drain implements Engine; the IV has no private clock.
func (v *IV) Drain() int64 { return 0 }

// Handle implements Engine by expanding the vector instruction into core
// operations.
func (v *IV) Handle(in *isa.Instr, _ int64) int64 {
	v.Instrs++
	switch {
	case in.Op == isa.OpSetVL || in.Op == isa.OpFence ||
		in.Op == isa.OpMvXS || in.Op == isa.OpMvSX:
		v.core.Ops(1)
	case in.Op == isa.OpLoad:
		// A 4-element unit-stride access spans at most two lines through
		// the shared LSQ.
		v.core.Load(in.Addr)
		if in.Addr/mem.LineBytes != (in.Addr+uint64(4*in.VL)-1)/mem.LineBytes {
			v.core.Load(in.Addr + uint64(4*in.VL) - 1)
		}
	case in.Op == isa.OpStore:
		v.core.Store(in.Addr)
	case in.Op == isa.OpLoadStride:
		// "Constant strides and indexed memory operations are decomposed to
		// micro-operations and handled as scalar loads/stores by the
		// load-store queue" (§VII-A): one decomposition μop plus one LSQ
		// access per element.
		v.core.Ops(1)
		for i := 0; i < in.VL; i++ {
			v.core.Load(uint64(int64(in.Addr) + int64(i)*in.Stride))
		}
	case in.Op == isa.OpStoreStride:
		v.core.Ops(1)
		for i := 0; i < in.VL; i++ {
			v.core.Store(uint64(int64(in.Addr) + int64(i)*in.Stride))
		}
	case in.Op == isa.OpLoadIdx:
		v.core.Ops(1)
		for _, a := range in.Addrs {
			v.core.Load(a)
		}
	case in.Op == isa.OpStoreIdx:
		v.core.Ops(1)
		for _, a := range in.Addrs {
			v.core.Store(a)
		}
	case isa.Classify(in.Op) == isa.ClassIMul:
		v.core.Muls(1)
	case isa.Classify(in.Op) == isa.ClassXE:
		// Reductions and permutes serialize across the short vector.
		v.core.Ops(1 + in.VL/2)
	default:
		v.core.Ops(1)
	}
	return 0
}

// DV pipe indices (Table III: simple integer, pipelined complex integer,
// iterative complex/cross-element, memory).
const (
	pipeSimple = iota
	pipeComplex
	pipeIter
	pipeMem
	numPipes
)

// DVConfig parameterizes the decoupled engine.
type DVConfig struct {
	HWVL       int
	Lanes      int // parallel lanes per execution pipe
	QueueDepth int
	PipeDepth  int64 // pipeline fill latency
}

// DefaultDVConfig is Table III's DV: 64-element vectors, in-order issue,
// four execution pipes. The engine is "loosely based on Tarantula" (§VII-A),
// which drove 16 lanes per pipe.
func DefaultDVConfig() DVConfig {
	return DVConfig{HWVL: 64, Lanes: 16, QueueDepth: 16, PipeDepth: 4}
}

// DV models the decoupled vector engine: private clock, in-order issue onto
// four pipes with per-register scoreboarding, and a VMU issuing
// cacheline-aligned requests into the L2 (§VII-A: one cycle per request
// generation with TLB hits assumed).
type DV struct {
	cfg DVConfig
	l2  mem.Level

	clock    int64 // in-order issue clock (stalls on operand scoreboard)
	dclock   int64 // dispatch clock: one instruction per cycle into the unit queues
	stFree   int64 // store-buffer drain port
	pipeFree [numPipes]int64
	ready    [32]int64
	storeT   [32]int64
	lastLoad int64
	lastStW  int64

	// queue is the VCU queue, a ring of QueueDepth slots: the dispatch
	// times of the last qLen instructions, oldest at qHead.
	queue []int64
	qHead int
	qLen  int

	// lineBuf is the reusable scratch for lines(): each expansion overwrites
	// the previous one, so the backing array grows to the longest request
	// stream once and is then allocation-free.
	lineBuf []uint64

	Instrs uint64

	tr  probe.Emitter // "dv": per-instruction commit events
	vmu probe.Emitter // "dv.vmu": load/store request streams
}

// NewDV builds a decoupled engine issuing into the given L2-side port.
func NewDV(cfg DVConfig, l2 mem.Level) *DV {
	return &DV{cfg: cfg, l2: l2, queue: make([]int64, max(cfg.QueueDepth, 0))}
}

// SetTracer attaches a per-run event tracer (nil to disable); the engine
// emits instruction commits under "dv" and memory traffic under "dv.vmu".
func (d *DV) SetTracer(tr probe.Tracer) {
	d.tr = probe.NewEmitter(tr, "dv")
	d.vmu = probe.NewEmitter(tr, "dv.vmu")
}

// ProbeStats implements probe.Source.
func (d *DV) ProbeStats(s *probe.Scope) {
	s.CounterU("instrs", d.Instrs)
	s.Counter("cycles", d.clock)
}

// ProbeGauges implements probe.GaugeSource: how full the decoupled unit's
// dispatch queue is at cycle now.
func (d *DV) ProbeGauges(s *probe.Scope, now int64) {
	s.Counter("queue.occupancy", int64(d.qLen))
}

// HWVL implements Engine.
func (d *DV) HWVL() int { return d.cfg.HWVL }

// enqueue models the VCU queue: once QueueDepth instructions wait in it,
// the core blocks until the dispatch time of the instruction QueueDepth
// places earlier; it returns 0 while a slot is free.
func (d *DV) enqueue(dispatched int64) int64 {
	if d.cfg.QueueDepth <= 0 {
		return dispatched
	}
	if d.qLen < len(d.queue) {
		d.queue[(d.qHead+d.qLen)%len(d.queue)] = dispatched
		d.qLen++
		return 0
	}
	block := d.queue[d.qHead]
	d.queue[d.qHead] = dispatched
	d.qHead = (d.qHead + 1) % len(d.queue)
	return block
}

func (d *DV) wait(t int64) {
	if t > d.clock {
		d.clock = t
	}
}

// occupancy reports pipe cycles for an instruction class.
func (d *DV) occupancy(in *isa.Instr) (pipe int, occ int64) {
	vl := int64(in.VL)
	lanes := int64(d.cfg.Lanes)
	chime := (vl + lanes - 1) / lanes
	switch isa.Classify(in.Op) {
	case isa.ClassIMul:
		if in.Op == isa.OpDiv || in.Op == isa.OpDivU || in.Op == isa.OpRem || in.Op == isa.OpRemU {
			return pipeIter, vl * 2 // iterative divide: ~2 cycles/element
		}
		return pipeComplex, chime
	case isa.ClassXE:
		return pipeIter, 2 * chime
	default:
		return pipeSimple, chime
	}
}

// Handle implements Engine. Memory instructions dispatch into the VMU at
// the dispatch clock so the access side runs ahead of compute — the
// decoupling that defines DV-class engines; compute instructions issue in
// order against the register scoreboard.
func (d *DV) Handle(in *isa.Instr, arrival int64) int64 {
	d.Instrs++
	d.dclock++
	if arrival > d.dclock {
		d.dclock = arrival
	}
	d.wait(arrival)
	var reply int64

	switch {
	case in.Op == isa.OpSetVL:
		d.clock++
	case in.Op == isa.OpFence:
		d.wait(d.lastLoad)
		d.wait(d.lastStW)
		d.clock++
		reply = d.clock
	case in.Op == isa.OpMvXS:
		d.wait(d.ready[in.Vs1])
		d.clock++
		reply = d.clock
	case in.Op == isa.OpMvSX:
		d.clock++
		d.ready[in.Vd] = d.clock
	case isa.IsMemory(in.Op):
		done := d.memory(in)
		block := d.enqueue(done)
		if reply > block {
			block = reply
		}
		return d.commit(in, arrival, block)
	default:
		d.wait(d.ready[in.Vs1])
		if in.Kind == isa.KindVV {
			d.wait(d.ready[in.Vs2])
		}
		if in.Masked {
			d.wait(d.ready[0])
		}
		d.wait(d.storeT[in.Vd])
		pipe, occ := d.occupancy(in)
		start := d.clock
		if d.pipeFree[pipe] > start {
			start = d.pipeFree[pipe]
		}
		d.pipeFree[pipe] = start + occ
		d.ready[in.Vd] = start + occ + d.cfg.PipeDepth
		d.clock++ // in-order issue slot
	}

	block := d.enqueue(d.clock)
	if reply > block {
		block = reply
	}
	return d.commit(in, arrival, block)
}

// commit emits the instruction's KInstr trace event and passes the core
// block time through.
func (d *DV) commit(in *isa.Instr, arrival, block int64) int64 {
	if d.tr.On() {
		d.tr.Emit(probe.Event{
			Kind:  probe.KInstr,
			Name:  isa.Disassemble(in),
			Begin: arrival,
			End:   d.clock,
			Seq:   d.Instrs,
			VL:    in.VL,
			Aux:   d.dclock,
			Aux2:  block,
		})
	}
	return block
}

// lines expands a DV memory instruction (isa.Instr.AppendLines, as EVE's
// VMU does). The returned slice aliases d.lineBuf and is only valid until
// the next call.
func (d *DV) lines(in *isa.Instr) []uint64 {
	d.lineBuf = in.AppendLines(d.lineBuf[:0])
	return d.lineBuf
}

// memory returns the time the VMU finished issuing the requests, which is
// when the instruction vacates its queue slot.
func (d *DV) memory(in *isa.Instr) int64 {
	write := isa.IsStore(in.Op)
	start := d.dclock
	if in.Op == isa.OpLoadIdx || in.Op == isa.OpStoreIdx {
		if t := d.ready[in.Vs2]; t > start {
			start = t
		}
	}
	if !write && d.storeT[in.Vd] > start {
		start = d.storeT[in.Vd] // WAR against a draining store
	}
	if d.pipeFree[pipeMem] > start {
		start = d.pipeFree[pipeMem]
	}
	lines := d.lines(in)

	if write {
		// Request generation occupies the memory pipe in order; the data
		// drains through the store buffer once the source register is
		// ready, so later loads are not held behind it.
		gen := start + int64(len(lines))
		d.pipeFree[pipeMem] = gen
		issueAt := gen
		if d.ready[in.Vs1] > issueAt {
			issueAt = d.ready[in.Vs1]
		}
		if d.stFree > issueAt {
			issueAt = d.stFree
		}
		t := issueAt
		var done int64
		for _, la := range lines {
			r := d.l2.Access(la, true, t+1)
			t = r.Accepted + 1
			if r.Done > done {
				done = r.Done
			}
		}
		d.stFree = t
		d.storeT[in.Vs1] = t
		if done > d.lastStW {
			d.lastStW = done
		}
		if d.vmu.On() {
			d.vmu.Emit(probe.Event{Kind: probe.KAccess, Name: "store",
				Begin: issueAt, End: done, Addr: in.Addr, VL: in.VL, Aux: int64(len(lines))})
		}
		return gen
	}

	t := start
	var done int64
	for _, la := range lines {
		// One cycle of request generation and address translation per
		// request (§VII-A), then the L2 access.
		r := d.l2.Access(la, false, t+1)
		t = r.Accepted + 1
		if r.Done > done {
			done = r.Done
		}
	}
	d.pipeFree[pipeMem] = t
	d.ready[in.Vd] = done
	if done > d.lastLoad {
		d.lastLoad = done
	}
	if d.vmu.On() {
		d.vmu.Emit(probe.Event{Kind: probe.KAccess, Name: "load",
			Begin: start, End: done, Addr: in.Addr, VL: in.VL, Aux: int64(len(lines))})
	}
	return t
}

// Drain implements Engine.
func (d *DV) Drain() int64 {
	d.wait(d.lastLoad)
	d.wait(d.lastStW)
	for _, p := range d.pipeFree {
		d.wait(p + d.cfg.PipeDepth)
	}
	return d.clock
}
