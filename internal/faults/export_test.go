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
	if runs, ok := f.plan(in); ok {
		return f.runNative(in, runs, golden, f.hwvl)
	}
	f.install(in, golden)
	return golden
}
