// Package isa defines the RVV-subset vector instruction set EVE executes
// (32-bit integer instructions of the RISC-V vector extension, §I) and a
// builder that plays the role of the vectorized binary: workload kernels
// call intrinsic-style methods, which execute functionally against golden
// register and memory state and simultaneously emit the dynamic instruction
// trace that the timing models consume. This realizes the paper's separation
// of execution and timing (§VII-A).
package isa

import "fmt"

// Op enumerates the vector operations.
type Op int

// Vector operations.
const (
	OpNop Op = iota

	// Integer ALU.
	OpAdd
	OpSub
	OpRSub
	OpAnd
	OpOr
	OpXor
	OpMin
	OpMax
	OpMinU
	OpMaxU
	OpSll
	OpSrl
	OpSra
	OpSAdd
	OpSAddU
	OpSSub
	OpSSubU
	OpMerge
	OpMv
	OpVId // vid.v: element indices

	// Multiply / divide (the paper's "imul" class).
	OpMul
	OpMulH
	OpMacc
	OpDiv
	OpDivU
	OpRem
	OpRemU

	// Compares producing mask values.
	OpMSeq
	OpMSne
	OpMSlt
	OpMSltU
	OpMSle
	OpMSleU
	OpMSgt
	OpMSgtU

	// Memory.
	OpLoad
	OpStore
	OpLoadStride
	OpStoreStride
	OpLoadIdx
	OpStoreIdx

	// Reductions and cross-element (VRU class).
	OpRedSum
	OpRedMin
	OpRedMax
	OpRedMinU
	OpRedMaxU
	OpSlide1Up
	OpSlide1Down
	OpRGather

	// Scalar interface and control.
	OpMvXS // vmv.x.s: element 0 to the core (core stalls for the reply)
	OpMvSX // vmv.s.x: scalar into element 0
	OpSetVL
	OpFence // vmfence (§V-A)
)

var opNames = map[Op]string{
	OpNop: "nop", OpAdd: "vadd", OpSub: "vsub", OpRSub: "vrsub", OpAnd: "vand",
	OpOr: "vor", OpXor: "vxor", OpMin: "vmin", OpMax: "vmax", OpMinU: "vminu",
	OpMaxU: "vmaxu", OpSll: "vsll", OpSrl: "vsrl", OpSra: "vsra",
	OpMerge: "vmerge", OpMv: "vmv", OpVId: "vid",
	OpSAdd: "vsadd", OpSAddU: "vsaddu", OpSSub: "vssub", OpSSubU: "vssubu",
	OpMul: "vmul", OpMulH: "vmulhu", OpMacc: "vmacc", OpDiv: "vdiv",
	OpDivU: "vdivu", OpRem: "vrem", OpRemU: "vremu",
	OpMSeq: "vmseq", OpMSne: "vmsne", OpMSlt: "vmslt", OpMSltU: "vmsltu",
	OpMSle: "vmsle", OpMSleU: "vmsleu", OpMSgt: "vmsgt", OpMSgtU: "vmsgtu",
	OpLoad: "vle32", OpStore: "vse32", OpLoadStride: "vlse32",
	OpStoreStride: "vsse32", OpLoadIdx: "vluxei32", OpStoreIdx: "vsuxei32",
	OpRedSum: "vredsum", OpRedMin: "vredmin", OpRedMax: "vredmax",
	OpRedMinU: "vredminu", OpRedMaxU: "vredmaxu",
	OpSlide1Up: "vslide1up", OpSlide1Down: "vslide1down", OpRGather: "vrgather",
	OpMvXS: "vmv.x.s", OpMvSX: "vmv.s.x", OpSetVL: "vsetvl", OpFence: "vmfence",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Class buckets operations per Table IV's characterization columns.
type Class int

// Instruction classes.
const (
	ClassCtrl Class = iota // vsetvl, fences, scalar moves
	ClassIALU              // integer ALU
	ClassIMul              // multiply and divide
	ClassXE                // cross-element and reductions
	ClassUS                // unit-stride memory
	ClassST                // constant-stride memory
	ClassIdx               // indexed memory
)

func (c Class) String() string {
	return [...]string{"ctrl", "ialu", "imul", "xe", "us", "st", "idx"}[c]
}

// Classify reports the Table IV class of an operation.
func Classify(o Op) Class {
	switch o {
	case OpSetVL, OpFence, OpMvXS, OpMvSX:
		return ClassCtrl
	case OpMul, OpMulH, OpMacc, OpDiv, OpDivU, OpRem, OpRemU:
		return ClassIMul
	case OpRedSum, OpRedMin, OpRedMax, OpRedMinU, OpRedMaxU,
		OpSlide1Up, OpSlide1Down, OpRGather:
		return ClassXE
	case OpLoad, OpStore:
		return ClassUS
	case OpLoadStride, OpStoreStride:
		return ClassST
	case OpLoadIdx, OpStoreIdx:
		return ClassIdx
	default:
		return ClassIALU
	}
}

// IsMemory reports whether the operation touches memory.
func IsMemory(o Op) bool {
	switch o {
	case OpLoad, OpStore, OpLoadStride, OpStoreStride, OpLoadIdx, OpStoreIdx:
		return true
	}
	return false
}

// IsStore reports whether the memory operation writes memory.
func IsStore(o Op) bool {
	switch o {
	case OpStore, OpStoreStride, OpStoreIdx:
		return true
	}
	return false
}

// OperandKind distinguishes vector-vector from vector-scalar encodings.
type OperandKind int

// Operand kinds.
const (
	KindVV OperandKind = iota
	KindVX
)
