// Package uop defines EVE's micro-operation (μop) abstraction (paper §IV,
// Table II). A micro-program is a sequence of VLIW-style tuples, each holding
// up to one counter μop, one arithmetic μop and one control μop, executed in
// that order within a single cycle. Arithmetic μops drive the EVE SRAM and
// its peripheral circuit stacks (internal/circuits); counter and control μops
// are executed by the vector sequencing unit (VSU).
package uop

import "fmt"

// Counter identifies one of EVE's 12 shared counters: four segment counters,
// four bit counters and four array counters (§IV-A).
type Counter int

// The counter file. Segment counters are conventionally initialized to the
// number of segments, bit counters to the segment size, and array counters to
// the number of active arrays.
const (
	Seg0 Counter = iota
	Seg1
	Seg2
	Seg3
	Bit0
	Bit1
	Bit2
	Bit3
	Arr0
	Arr1
	Arr2
	Arr3
	NumCounters
)

var counterNames = [...]string{
	"seg_cnt[0]", "seg_cnt[1]", "seg_cnt[2]", "seg_cnt[3]",
	"bit_cnt[0]", "bit_cnt[1]", "bit_cnt[2]", "bit_cnt[3]",
	"arr_cnt[0]", "arr_cnt[1]", "arr_cnt[2]", "arr_cnt[3]",
}

func (c Counter) String() string {
	if c >= 0 && int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("cnt(%d)", int(c))
}

// RowRef names an SRAM wordline, optionally indexed by the iteration count of
// a counter: the resolved row is Base + Stride × iterations(Cnt). Counter
// indexing is how looped μprograms walk the segments of a vector register
// without unrolling (Fig 4's addr_a advancing per iteration).
type RowRef struct {
	Base   int
	Stride int
	Cnt    Counter
	HasCnt bool
}

// Row returns an unindexed reference to a fixed wordline.
func Row(base int) RowRef { return RowRef{Base: base} }

// RowBy returns a counter-indexed reference: Base + Stride×iter(Cnt).
func RowBy(base int, cnt Counter, stride int) RowRef {
	return RowRef{Base: base, Stride: stride, Cnt: cnt, HasCnt: true}
}

// Resolve computes the concrete wordline for the given per-counter iteration
// counts.
func (r RowRef) Resolve(iters *[NumCounters]int) int {
	if !r.HasCnt {
		return r.Base
	}
	return r.Base + r.Stride*iters[r.Cnt]
}

func (r RowRef) String() string {
	if !r.HasCnt {
		return fmt.Sprintf("r%d", r.Base)
	}
	return fmt.Sprintf("r%d+%d*i(%s)", r.Base, r.Stride, r.Cnt)
}

// ExtRef names an external data_in row supplied by the VSU, optionally
// indexed by a counter's iteration count (e.g. streaming in one cacheline
// row per iteration).
type ExtRef struct {
	Base   int
	Cnt    Counter
	HasCnt bool
}

// Ext returns an unindexed external-row reference.
func Ext(base int) ExtRef { return ExtRef{Base: base} }

// ExtBy returns a counter-indexed external-row reference.
func ExtBy(base int, cnt Counter) ExtRef { return ExtRef{Base: base, Cnt: cnt, HasCnt: true} }

// Resolve computes the concrete external row index.
func (e ExtRef) Resolve(iters *[NumCounters]int) int {
	if !e.HasCnt {
		return e.Base
	}
	return e.Base + iters[e.Cnt]
}

// Src selects which value computed by the circuit stack a writeback reads
// (Table II's src = {(n)and, (n)or, x(n)or, add, shift, data_in}, plus the
// registers the stack exposes).
type Src int

// Writeback sources.
const (
	SrcNone Src = iota
	SrcAnd
	SrcNand
	SrcOr
	SrcNor
	SrcXor
	SrcXnor
	SrcAdd    // sum output of the add logic
	SrcCShift // contents of the constant shifter
	SrcXReg   // contents of the XRegister
	SrcMask   // contents of the mask latches
	SrcZero   // data_in port tied low
	SrcOnes   // data_in port tied high
	SrcExt    // data_in port driven by the VSU (ExtRef selects the row)
)

var srcNames = [...]string{
	"none", "and", "nand", "or", "nor", "xor", "xnor",
	"add", "cshift", "xreg", "mask", "zero", "ones", "data_in",
}

func (s Src) String() string {
	if s >= 0 && int(s) < len(srcNames) {
		return srcNames[s]
	}
	return fmt.Sprintf("src(%d)", int(s))
}

// Dst selects the destination class of a writeback.
type Dst int

// Writeback destinations. DstRow writes an SRAM wordline; the register
// destinations load the circuit-stack latches; DstDataOut streams the value
// out of the array (to the VSU/VRU/DTU); DstCarry loads the inter-segment
// carry latch (physically the XRegister in EVE-1 and a spare-shifter
// flip-flop in EVE-n, §III).
const (
	DstRow Dst = iota
	DstXReg
	DstMask
	DstCShift
	DstSpare
	DstCarry
	DstDataOut
)

var dstNames = [...]string{"row", "xreg", "mask", "cshift", "spare", "carry", "data_out"}

func (d Dst) String() string {
	if d >= 0 && int(d) < len(dstNames) {
		return dstNames[d]
	}
	return fmt.Sprintf("dst(%d)", int(d))
}

// Spread selects which column of a segment group drives a mask-latch load:
// Table II's m = {msb, lsb, none}. With SpreadLSB the group's least
// significant column's bit is broadcast to the whole group, and likewise for
// SpreadMSB; SpreadNone loads each column's own bit.
type Spread int

// Mask-load column selection.
const (
	SpreadNone Spread = iota
	SpreadLSB
	SpreadMSB
)

// ArithKind discriminates arithmetic μops (Table II).
type ArithKind int

// Arithmetic μop kinds.
const (
	ANone      ArithKind = iota
	ARead                // rd: native SRAM read into a latch or data_out
	AWrite               // wr: native SRAM write from data_in
	ABLC                 // blc: bit-line compute of two wordlines
	AWriteback           // wb: write a computed value back (row or latch)
	ALShift              // lshft: conditional 1-bit left shift of the constant shifter
	ARShift              // rshft: conditional 1-bit right shift of the constant shifter
	ALRotate             // lrot: 1-bit rotate left within the segment
	ARRotate             // rrot: 1-bit rotate right within the segment
	AMaskShift           // m_shft: 1-bit right shift of the XRegister
)

var arithNames = [...]string{
	"nop", "rd", "wr", "blc", "wb", "lshft", "rshft", "lrot", "rrot", "m_shft",
}

func (k ArithKind) String() string {
	if k >= 0 && int(k) < len(arithNames) {
		return arithNames[k]
	}
	return fmt.Sprintf("arith(%d)", int(k))
}

// Arith is one arithmetic μop. Field use depends on Kind:
//
//	ARead:      A = source row, Dst ∈ {DstCShift, DstXReg, DstMask, DstDataOut}
//	AWrite:     A = destination row, Src ∈ {SrcZero, SrcOnes, SrcExt}, Masked
//	ABLC:       A, B = the two wordlines
//	AWriteback: Dst (+DstR when DstRow), Src, Masked, Spread
//	shifts:     Masked selects whether the mask latch gates the shift
type Arith struct {
	Kind   ArithKind
	A, B   RowRef
	DstR   RowRef
	Dst    Dst
	Src    Src
	ExtR   ExtRef
	Masked bool
	Spread Spread
}

// EnergyClass buckets arithmetic μops by their array-energy cost (§VI-B):
// reads and writes match a vanilla SRAM access; bit-line compute costs ~20%
// more than a read; the peripheral-only operations (shifts, rotates, latch
// loads) cost far less since neither sense amplifiers nor bit-line
// precharge are involved.
type EnergyClass int

// Energy classes.
const (
	ECNone EnergyClass = iota
	ECRead
	ECWrite
	ECBLC
	ECPeriph
	NumEnergyClasses
)

// EnergyClassOf reports the energy class of one arithmetic μop.
func EnergyClassOf(a *Arith) EnergyClass {
	switch a.Kind {
	case ANone:
		return ECNone
	case ARead:
		return ECRead
	case AWrite:
		return ECWrite
	case ABLC:
		return ECBLC
	case AWriteback:
		if a.Dst == DstRow {
			return ECWrite
		}
		return ECPeriph
	default: // shifts, rotates, mask shift
		return ECPeriph
	}
}

// CtrKind discriminates counter μops.
type CtrKind int

// Counter μop kinds.
const (
	CNone CtrKind = iota
	CInit         // init cnt, val
	CDecr         // decr cnt
	CIncr         // incr cnt
)

// Ctr is one counter μop.
type Ctr struct {
	Kind CtrKind
	Cnt  Counter
	Val  int // CInit only
}

// CtlKind discriminates control μops.
type CtlKind int

// Control μop kinds.
const (
	LNone CtlKind = iota
	LBnz          // bnz cnt, target: branch while the counter has not wrapped to zero
	LBnd          // bnd cnt, target: branch if the counter sits on a binary decade
	LJmp          // unconditional branch
	LRet          // conclude the micro-program
)

// Ctl is one control μop. Target is a tuple index within the program.
type Ctl struct {
	Kind   CtlKind
	Cnt    Counter
	Target int
}

// Tuple is one VLIW issue slot: a counter μop, an arithmetic μop and a
// control μop executed together in one cycle (§IV-B).
type Tuple struct {
	Ctr   Ctr
	Arith Arith
	Ctl   Ctl
}

// Program is a micro-program: the ROM image for one macro-operation.
type Program struct {
	Name   string
	Tuples []Tuple
}

// Len reports the static number of tuples.
func (p *Program) Len() int { return len(p.Tuples) }
