package eve

import (
	"repro/internal/isa"
	"repro/internal/sim"
)

// Machine is a directly programmable simulated system: allocate and fill
// memory, issue RVV-style vector intrinsics strip-mined against HWVL, and
// call Finish for the cycle count. Each intrinsic executes functionally
// right away (reads of memory or registers observe program order), while
// timing accumulates in the background models. An EVE engine spawns when
// the first vector instruction arrives.
type Machine struct {
	sys      System
	simSys   *sim.System
	b        *isa.Builder
	finished bool
}

// NewMachine builds a machine with the given memory capacity in bytes
// (minimum 1 MiB).
func NewMachine(s System, memBytes int) *Machine {
	ss := sim.NewSystem(s.config(), max(memBytes, 1<<20))
	return &Machine{sys: s, simSys: ss, b: ss.Builder()}
}

// prog returns the builder that programs the machine, refusing use after
// Finish.
func (m *Machine) prog() *isa.Builder {
	if m.finished {
		panic("eve: machine used after Finish")
	}
	return m.b
}

// System reports the machine's configuration.
func (m *Machine) System() System { return m.sys }

// HWVL reports the hardware vector length vector intrinsics strip against.
func (m *Machine) HWVL() int { return m.b.HWVL() }

// Finish drains all in-flight work and returns the result. The machine must
// not be used afterwards.
func (m *Machine) Finish() Result {
	m.prog()
	m.finished = true
	r := fromSimResult(m.simSys.Finish())
	r.Kernel = "custom"
	return r
}

// Memory management. Addresses are byte addresses into the machine's flat
// memory; words are 32-bit little-endian.

// AllocWords reserves n 32-bit words and returns the base address.
func (m *Machine) AllocWords(n int) uint64 { return m.b.Mem.AllocU32(n) }

// WriteWord initializes memory without simulating an access (input setup).
func (m *Machine) WriteWord(addr uint64, v uint32) { m.b.Mem.StoreU32(addr, v) }

// ReadWord inspects memory without simulating an access (output readback).
func (m *Machine) ReadWord(addr uint64) uint32 { return m.b.Mem.LoadU32(addr) }

// Scalar-side program events: the loop control and scalar memory traffic
// around the vector code.

// ScalarOps accounts n simple scalar instructions.
func (m *Machine) ScalarOps(n int) { m.prog().ScalarOps(n) }

// ScalarMuls accounts n scalar multiply/divide instructions.
func (m *Machine) ScalarMuls(n int) { m.prog().ScalarMuls(n) }

// ScalarLoad performs a timed scalar load and returns the value.
func (m *Machine) ScalarLoad(addr uint64) uint32 { return m.prog().ScalarLoad(addr) }

// ScalarStore performs a timed scalar store.
func (m *Machine) ScalarStore(addr uint64, v uint32) { m.prog().ScalarStore(addr, v) }

// Vector intrinsics (RVV subset). Registers are v0-v31; v0 doubles as the
// predicate register for masked execution.

// SetVL requests avl elements, returning min(avl, HWVL).
func (m *Machine) SetVL(avl int) int { return m.prog().SetVL(avl) }

// SetMasked toggles predication by v0 for subsequent operations.
func (m *Machine) SetMasked(on bool) { m.prog().SetMasked(on) }

// Fence orders vector memory operations against the scalar core (vmfence).
func (m *Machine) Fence() { m.prog().Fence() }

// Load performs a unit-stride load of VL words into vd.
func (m *Machine) Load(vd int, addr uint64) { m.prog().Load(vd, addr) }

// Store performs a unit-stride store of VL words from vs.
func (m *Machine) Store(vs int, addr uint64) { m.prog().Store(vs, addr) }

// LoadStride performs a constant-stride load (stride in bytes).
func (m *Machine) LoadStride(vd int, addr uint64, stride int64) {
	m.prog().LoadStride(vd, addr, stride)
}

// StoreStride performs a constant-stride store.
func (m *Machine) StoreStride(vs int, addr uint64, stride int64) {
	m.prog().StoreStride(vs, addr, stride)
}

// LoadIdx gathers: vd[i] = mem[base + vidx[i]] (byte offsets).
func (m *Machine) LoadIdx(vd int, base uint64, vidx int) { m.prog().LoadIdx(vd, base, vidx) }

// StoreIdx scatters: mem[base + vidx[i]] = vs[i].
func (m *Machine) StoreIdx(vs int, base uint64, vidx int) { m.prog().StoreIdx(vs, base, vidx) }

// Arithmetic (vector-vector).

func (m *Machine) Add(vd, vs1, vs2 int)  { m.prog().Add(vd, vs1, vs2) }
func (m *Machine) Sub(vd, vs1, vs2 int)  { m.prog().Sub(vd, vs1, vs2) }
func (m *Machine) And(vd, vs1, vs2 int)  { m.prog().And(vd, vs1, vs2) }
func (m *Machine) Or(vd, vs1, vs2 int)   { m.prog().Or(vd, vs1, vs2) }
func (m *Machine) Xor(vd, vs1, vs2 int)  { m.prog().Xor(vd, vs1, vs2) }
func (m *Machine) Mul(vd, vs1, vs2 int)  { m.prog().Mul(vd, vs1, vs2) }
func (m *Machine) MulH(vd, vs1, vs2 int) { m.prog().MulH(vd, vs1, vs2) }
func (m *Machine) Macc(vd, vs1, vs2 int) { m.prog().Macc(vd, vs1, vs2) }
func (m *Machine) Div(vd, vs1, vs2 int)  { m.prog().Div(vd, vs1, vs2) }
func (m *Machine) Min(vd, vs1, vs2 int)  { m.prog().Min(vd, vs1, vs2) }
func (m *Machine) Max(vd, vs1, vs2 int)  { m.prog().Max(vd, vs1, vs2) }
func (m *Machine) Sll(vd, vs1, vs2 int)  { m.prog().Sll(vd, vs1, vs2) }
func (m *Machine) Srl(vd, vs1, vs2 int)  { m.prog().Srl(vd, vs1, vs2) }

// Arithmetic (vector-scalar / immediate).

func (m *Machine) AddVX(vd, vs1 int, x uint32)  { m.prog().AddVX(vd, vs1, x) }
func (m *Machine) SubVX(vd, vs1 int, x uint32)  { m.prog().SubVX(vd, vs1, x) }
func (m *Machine) RSubVX(vd, vs1 int, x uint32) { m.prog().RSubVX(vd, vs1, x) }
func (m *Machine) AndVX(vd, vs1 int, x uint32)  { m.prog().AndVX(vd, vs1, x) }
func (m *Machine) OrVX(vd, vs1 int, x uint32)   { m.prog().OrVX(vd, vs1, x) }
func (m *Machine) XorVX(vd, vs1 int, x uint32)  { m.prog().XorVX(vd, vs1, x) }
func (m *Machine) MulVX(vd, vs1 int, x uint32)  { m.prog().MulVX(vd, vs1, x) }
func (m *Machine) MaccVX(vd, vs1 int, x uint32) { m.prog().MaccVX(vd, vs1, x) }
func (m *Machine) MaxVX(vd, vs1 int, x uint32)  { m.prog().MaxVX(vd, vs1, x) }
func (m *Machine) SllVX(vd, vs1 int, sh uint32) { m.prog().SllVX(vd, vs1, sh) }
func (m *Machine) SrlVX(vd, vs1 int, sh uint32) { m.prog().SrlVX(vd, vs1, sh) }
func (m *Machine) SraVX(vd, vs1 int, sh uint32) { m.prog().SraVX(vd, vs1, sh) }

// Moves and broadcast.

func (m *Machine) Mv(vd, vs1 int)        { m.prog().Mv(vd, vs1) }
func (m *Machine) MvVX(vd int, x uint32) { m.prog().MvVX(vd, x) }
func (m *Machine) MvSX(vd int, x uint32) { m.prog().MvSX(vd, x) }
func (m *Machine) VId(vd int)            { m.prog().VId(vd) }

// MvXS reads element 0 of vs back to the scalar core (blocking).
func (m *Machine) MvXS(vs int) uint32 { return m.prog().MvXS(vs) }

// Compares (write 0/1 per element; use vd = 0 to set the predicate).

func (m *Machine) MSeq(vd, vs1, vs2 int)         { m.prog().MSeq(vd, vs1, vs2) }
func (m *Machine) MSne(vd, vs1, vs2 int)         { m.prog().MSne(vd, vs1, vs2) }
func (m *Machine) MSlt(vd, vs1, vs2 int)         { m.prog().MSlt(vd, vs1, vs2) }
func (m *Machine) MSltU(vd, vs1, vs2 int)        { m.prog().MSltU(vd, vs1, vs2) }
func (m *Machine) MSltVX(vd, vs1 int, x uint32)  { m.prog().MSltVX(vd, vs1, x) }
func (m *Machine) MSgtVX(vd, vs1 int, x uint32)  { m.prog().MSgtVX(vd, vs1, x) }
func (m *Machine) MSltUVX(vd, vs1 int, x uint32) { m.prog().MSltUVX(vd, vs1, x) }
func (m *Machine) MSgtUVX(vd, vs1 int, x uint32) { m.prog().MSgtUVX(vd, vs1, x) }
func (m *Machine) MSeqVX(vd, vs1 int, x uint32)  { m.prog().MSeqVX(vd, vs1, x) }
func (m *Machine) Merge(vd, vs1, vs2 int)        { m.prog().Merge(vd, vs1, vs2) }

// Reductions and cross-element operations.

func (m *Machine) RedSum(vd, vs2, vs1 int)         { m.prog().RedSum(vd, vs2, vs1) }
func (m *Machine) RedMax(vd, vs2, vs1 int)         { m.prog().RedMax(vd, vs2, vs1) }
func (m *Machine) RedMin(vd, vs2, vs1 int)         { m.prog().RedMin(vd, vs2, vs1) }
func (m *Machine) Slide1Up(vd, vs int, x uint32)   { m.prog().Slide1Up(vd, vs, x) }
func (m *Machine) Slide1Down(vd, vs int, x uint32) { m.prog().Slide1Down(vd, vs, x) }
func (m *Machine) RGather(vd, vs2, vs1 int)        { m.prog().RGather(vd, vs2, vs1) }

// VReg exposes the golden contents of a vector register for inspection.
func (m *Machine) VReg(r int) []uint32 { return m.b.VReg(r) }
