package faults

import "repro/internal/isa"

// FullWidth is the oracle active-column execution is held to: a Datapath
// that runs every micro-program over all hwvl elements, whatever the
// instruction's VL and the armed faults.
type FullWidth struct{ *Datapath }

// NewFullWidth builds the oracle for NewDatapath(n, hwvl, maxCycles).
func NewFullWidth(n, hwvl, maxCycles int) FullWidth {
	return FullWidth{NewDatapath(n, hwvl, maxCycles)}
}

// Exec is Datapath.Exec with every element active.
func (f FullWidth) Exec(in *isa.Instr, golden []uint32) []uint32 {
	return f.exec(in, golden, f.hwvl)
}

// AlwaysRead is the oracle the mirror rule is held to: a Datapath whose
// Read streams the whole register out through the data port at every call,
// whether or not its cells changed.
type AlwaysRead struct{ *Datapath }

// NewAlwaysRead builds the oracle for NewDatapath(n, hwvl, maxCycles).
func NewAlwaysRead(n, hwvl, maxCycles int) AlwaysRead {
	return AlwaysRead{NewDatapath(n, hwvl, maxCycles)}
}

// Read is Datapath.Read without the mirror rule.
func (a AlwaysRead) Read(r int) []uint32 { return a.register(r) }

// Register returns register r's live contents, read through the data port
// whatever the mirror rule says, valid until the next Exec, Read or
// Register call.
func (dp *Datapath) Register(r int) []uint32 { return dp.register(r) }

// PortReads reports how many times Read went to the data port.
func (dp *Datapath) PortReads() int { return dp.reads }
