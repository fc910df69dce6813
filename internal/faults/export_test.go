package faults

import "repro/internal/isa"

// AlwaysLive is the oracle dormancy is held to: a Datapath that runs every
// instruction's micro-programs over its active columns, whether or not an
// armed fault can act on them.
type AlwaysLive struct{ *Datapath }

// NewAlwaysLive builds the oracle for NewDatapath(n, hwvl, maxCycles).
func NewAlwaysLive(n, hwvl, maxCycles int) AlwaysLive {
	return AlwaysLive{NewDatapath(n, hwvl, maxCycles)}
}

// Exec is Datapath.Exec without dormancy.
func (a AlwaysLive) Exec(in *isa.Instr, golden []uint32) []uint32 {
	a.started = true
	return a.exec(in, golden, a.plan(in), a.window(in))
}

// FullWidth is the oracle active-column execution is held to: a Datapath
// that runs every micro-program over all hwvl elements, whatever the
// instruction's VL and the armed faults.
type FullWidth struct{ *Datapath }

// NewFullWidth builds the oracle for NewDatapath(n, hwvl, maxCycles).
func NewFullWidth(n, hwvl, maxCycles int) FullWidth {
	return FullWidth{NewDatapath(n, hwvl, maxCycles)}
}

// Exec is AlwaysLive.Exec with every element active.
func (f FullWidth) Exec(in *isa.Instr, golden []uint32) []uint32 {
	f.started = true
	return f.exec(in, golden, f.plan(in), f.hwvl)
}

// AlwaysRead is the oracle the mirror rule is held to: an AlwaysLive
// datapath whose Read streams the whole register out through the data port
// at every call, whether or not its cells changed.
type AlwaysRead struct{ AlwaysLive }

// NewAlwaysRead builds the oracle for NewDatapath(n, hwvl, maxCycles).
func NewAlwaysRead(n, hwvl, maxCycles int) AlwaysRead {
	return AlwaysRead{NewAlwaysLive(n, hwvl, maxCycles)}
}

// Read is Datapath.Read without the mirror rule.
func (a AlwaysRead) Read(r int) []uint32 { return a.register(r) }

// Register returns register r's live contents, read through the data port
// whatever the mirror rule says, valid until the next Exec, Read or
// Register call.
func (dp *Datapath) Register(r int) []uint32 { return dp.register(r) }

// PortReads reports how many times Read went to the data port.
func (dp *Datapath) PortReads() int { return dp.reads }

// LiveRuns reports how many instructions ran as micro-programs.
func (dp *Datapath) LiveRuns() int { return dp.lives }

// RunAlwaysLive is Run with every injection cell on the AlwaysLive oracle.
func RunAlwaysLive(cfg Config) (*Report, error) {
	return run(cfg, func(dp *Datapath) isa.Datapath { return AlwaysLive{dp} })
}

// PlanCounts reports the memoized array accesses and bit-line computes of
// the micro-programs in runs as, zero for a port-only op.
func (dp *Datapath) PlanCounts(in *isa.Instr) (accesses, blcs uint64) {
	return counts(dp.plan(in))
}

// Recycle returns dp through a one-entry campaign free list, put and then
// taken again, as the next cell of a campaign would take it.
func Recycle(dp *Datapath) *Datapath {
	p := &datapaths{n: dp.mach.Layout.N, maxCycles: dp.mach.MaxCycles, max: 1}
	p.put(dp)
	return p.get(dp.hwvl)
}
