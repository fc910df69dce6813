package isa

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// Instr is one dynamic vector instruction as seen by a timing model.
type Instr struct {
	Op     Op
	Kind   OperandKind
	Vd     int
	Vs1    int
	Vs2    int
	Scalar uint32 // scalar operand or immediate for KindVX
	Masked bool
	VL     int // active vector length at issue

	// Memory operands.
	Addr   uint64   // base address (unit-stride and strided)
	Stride int64    // byte stride (strided)
	Addrs  []uint64 // resolved element addresses (indexed only); see Event
}

// Disassemble renders a static instruction in assembler-like syntax; trace
// exporters use it to name vector events. Scalar operands and addresses are
// runtime state and render as the placeholder "x_".
func Disassemble(in *Instr) string {
	suffix := ""
	if in.Masked {
		suffix = ", v0.t"
	}
	switch {
	case in.Op == OpSetVL:
		return "vsetvli x0, x0, e32"
	case in.Op == OpFence:
		return "vmfence"
	case in.Op == OpMvXS:
		return fmt.Sprintf("vmv.x.s x_, v%d", in.Vs1)
	case in.Op == OpMvSX:
		return fmt.Sprintf("vmv.s.x v%d, x_", in.Vd)
	case IsStore(in.Op):
		return fmt.Sprintf("%s.v v%d, (x_)%s", in.Op, in.Vs1, suffix)
	case IsMemory(in.Op):
		return fmt.Sprintf("%s.v v%d, (x_)%s", in.Op, in.Vd, suffix)
	case in.Kind == KindVX:
		return fmt.Sprintf("%s.vx v%d, v%d, x_%s", in.Op, in.Vd, in.Vs1, suffix)
	default:
		return fmt.Sprintf("%s.vv v%d, v%d, v%d%s", in.Op, in.Vd, in.Vs1, in.Vs2, suffix)
	}
}

// AppendLines appends the cacheline request stream of a vector memory
// instruction to dst, as line-aligned addresses in issue order, and returns
// the extended slice; any other op appends nothing. Unit and constant
// stride coalesce consecutive elements sharing a line (the VMU guarantees
// cache-line alignment, §V-C); indexed accesses make one request per
// element, per the paper. EVE's VMU and the DV baseline both expand their
// memory instructions here, into a buffer they reuse, so dst grows to the
// longest expansion once and is then allocation-free.
func (in *Instr) AppendLines(dst []uint64) []uint64 {
	switch in.Op {
	case OpLoad, OpStore:
		first := in.Addr / mem.LineBytes
		last := (in.Addr + uint64(4*in.VL) - 1) / mem.LineBytes
		for l := first; l <= last; l++ {
			//evelint:allow hotalloc -- amortized: the caller's buffer grows to the longest expansion once, then reuses
			dst = append(dst, l*mem.LineBytes)
		}
	case OpLoadStride, OpStoreStride:
		prev := uint64(math.MaxUint64) // no line: a line number is below 2⁵⁸
		for i := 0; i < in.VL; i++ {
			a := uint64(int64(in.Addr)+int64(i)*in.Stride) / mem.LineBytes
			if a != prev {
				//evelint:allow hotalloc -- amortized: the caller's buffer grows to the longest expansion once, then reuses
				dst = append(dst, a*mem.LineBytes)
				prev = a
			}
		}
	case OpLoadIdx, OpStoreIdx:
		for _, a := range in.Addrs {
			//evelint:allow hotalloc -- amortized: the caller's buffer grows to the longest expansion once, then reuses
			dst = append(dst, a/mem.LineBytes*mem.LineBytes)
		}
	}
	return dst
}

// EventKind distinguishes trace events.
type EventKind int

// Trace event kinds. Scalar events are batched: N consecutive simple ops
// collapse into one event with a count, which keeps traces compact without
// losing timing information for width-limited core models.
const (
	EvScalar    EventKind = iota // N simple integer/branch ops
	EvScalarMul                  // N multiply/divide ops
	EvLoad                       // one scalar load at Addr
	EvStore                      // one scalar store at Addr
	EvVector                     // one vector instruction
)

// Event is one entry of the dynamic trace.
//
// V, set on EvVector events, points at the emitting Builder's instruction
// slot, and V.Addrs at the Builder's reused address buffer: both are valid
// only until Emit returns, because the Builder overwrites them with the next
// vector instruction. Emission therefore allocates nothing; a Sink that
// keeps an instruction copies *V and its Addrs.
type Event struct {
	Kind EventKind
	N    int
	Addr uint64
	V    *Instr
}

// Sink consumes the dynamic trace as it is generated. Timing models
// implement Sink; a nil sink runs the workload functionally only.
type Sink interface {
	Emit(ev Event)
}

// Mix accumulates the instruction characterization of Table IV.
type Mix struct {
	ScalarOps   uint64 // dynamic scalar instructions
	ScalarMuls  uint64
	ScalarLoads uint64
	ScalarStore uint64

	VectorInstrs uint64               // dynamic vector instructions
	VectorOps    uint64               // Σ active VL over vector instructions
	Predicated   uint64               // masked vector instructions
	ByClass      [ClassIdx + 1]uint64 // dynamic count per class
}

// DynamicInstrs reports total dynamic instructions (scalar + vector).
func (m Mix) DynamicInstrs() uint64 {
	return m.ScalarOps + m.ScalarMuls + m.ScalarLoads + m.ScalarStore + m.VectorInstrs
}

// TotalOps reports Table IV's DOp: scalar instructions plus vector
// instructions weighted by their active vector length.
func (m Mix) TotalOps() uint64 {
	return m.ScalarOps + m.ScalarMuls + m.ScalarLoads + m.ScalarStore + m.VectorOps
}

// VectorPct reports VI%: the share of dynamic instructions that are vector.
func (m Mix) VectorPct() float64 {
	d := m.DynamicInstrs()
	if d == 0 {
		return 0
	}
	return float64(m.VectorInstrs) / float64(d)
}

// VectorOpPct reports VO%: the share of operations performed by the vector
// unit.
func (m Mix) VectorOpPct() float64 {
	t := m.TotalOps()
	if t == 0 {
		return 0
	}
	return float64(m.VectorOps) / float64(t)
}

// LogicalParallelism reports VPar: total ops per dynamic instruction.
func (m Mix) LogicalParallelism() float64 {
	d := m.DynamicInstrs()
	if d == 0 {
		return 0
	}
	return float64(m.TotalOps()) / float64(d)
}
