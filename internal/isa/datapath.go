package isa

// Datapath mirrors the builder's vector register file on an alternate
// functional substrate — in practice the bit-level EVE machine
// (internal/uprog over internal/circuits over internal/sram), optionally
// with faults armed (internal/faults).
//
// The builder remains the reference semantics: it computes every result in
// its golden registers first, then hands the instruction to the datapath
// and adopts the substrate's destination contents as the architectural
// result. A fault-free substrate must reproduce the golden values exactly
// (the micro-program correctness tests in internal/uprog hold that
// equivalence per operation); a faulty substrate makes its corruption
// architecturally visible to the kernel and its checker.
//
// Values leave the vector unit only through the builder — stores, scalar
// moves, gather/scatter addressing and VRU inputs — and the builder
// refreshes its mirror from the datapath at each of those points, so fault
// state that accumulated in a register since it was written is observed,
// not the stale mirror.
//
// The slices Exec and Read return may be buffers the datapath owns and
// reuses: each is valid only until the next Exec or Read call, so callers
// copy what they keep (the builder copies it into its mirror at once).
//
// Read may return nil, meaning "unchanged since you last adopted it": the
// register's cells have not changed since the builder's mirror of it last
// equalled them, so copying nil (a no-op) leaves the mirror right. A
// substrate may return nil for r only while that holds. The mirror of r
// equals the substrate after a Read of r that returned the register, and
// after an Exec into r that hands back every element the substrate holds;
// an Exec into r keeps it equal if it was equal before, since the returned
// register's tail is the mirror's own and the substrate's tail is
// undisturbed. A substrate must not count an Exec that changes only part
// of r — a reduction or vmv.s.x writes element 0 alone, at any VL — as
// making a stale mirror equal.
type Datapath interface {
	// Exec executes in on the substrate and returns the destination
	// register's live contents (HWVL elements). golden is the
	// builder-computed destination state; substrates install it directly
	// for operations the vector arrays do not execute natively (loads
	// arriving through the DTUs, VRU results, element-index streams).
	Exec(in *Instr, golden []uint32) []uint32
	// Read returns the live contents of vector register r (HWVL elements),
	// or nil when r is unchanged since the builder last adopted it.
	Read(r int) []uint32
}
