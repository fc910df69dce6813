package eve

import (
	"repro/internal/isa"
	"repro/internal/uop"
	"repro/internal/uprog"
)

// DataIn names the data_in rows a decoded body program reads.
type DataIn uint8

// The data_in row sets of the ROM's programs.
const (
	NoDataIn  DataIn = iota
	SatConsts        // uprog.SatConstRows: the saturation clamps
	DivConsts        // uprog.BitConstRows: the division constants
	SignFill         // uprog.TopBitsRow for the shift amount mod n: an SRA's sign fill
	Broadcast        // uprog.BroadcastRows of the scalar operand
)

// VSUOp is the decode of one vector instruction: the micro-programs the
// sequencer runs for it, in order, and the data_in rows they read.
type VSUOp struct {
	// Prologue stages a .vx op's scalar into the broadcast scratch register
	// through data_in (reading the Broadcast rows). It is nil for .vv ops
	// and where the VSU resolves the scalar at decode: .vx shifts and
	// vmv.v.x.
	Prologue *uop.Program
	// Body is the op's own program, nil for an op whose data moves only
	// through the ports (loads, stores, slides, gathers, reductions, vid,
	// scalar moves, vsetvl, fences).
	Body *uop.Program
	// B is Body's vs2 operand: the broadcast scratch register for a .vx op.
	B int
	// DataIn is the data_in rows Body reads.
	DataIn DataIn
}

// Decoder is the VSU's decode stage for one layout (§V): the one map from a
// vector instruction to its micro-programs, shared by the timing model's
// cost table and the fault campaign's bit-level datapath. Programs are
// immutable, so one Decoder serves concurrent callers.
type Decoder struct {
	l        uprog.Layout
	prologue *uop.Program // the .vx broadcast, built once
}

// NewDecoder returns the decoder for layout l.
func NewDecoder(l uprog.Layout) Decoder {
	return Decoder{l: l, prologue: uprog.WriteExt(l, l.ScratchID(uprog.BroadcastScratch), false)}
}

// ShiftAmount returns the part of in's scalar operand that decoding bakes
// into a program: a .vx shift's amount, which the VSU resolves at decode
// (the scalar's low five bits, as RVV specifies), and zero otherwise.
func ShiftAmount(in *isa.Instr) uint32 {
	switch in.Op {
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		if in.Kind == isa.KindVX {
			return in.Scalar & 31
		}
	}
	return 0
}

// Decode maps in to its micro-programs, writing register d from sources a
// (vs1) and b (vs2). A .vx op reads the broadcast scratch register in
// place of b.
func (dc Decoder) Decode(in *isa.Instr, d, a, b int) VSUOp {
	l, m := dc.l, in.Masked
	vx := in.Kind == isa.KindVX
	var v VSUOp
	if vx {
		v.Prologue, b = dc.prologue, l.ScratchID(uprog.BroadcastScratch)
	}
	v.B = b
	switch in.Op {
	case isa.OpAdd:
		v.Body = uprog.Add(l, d, a, b, m)
	case isa.OpSub:
		v.Body = uprog.Sub(l, d, a, b, m)
	case isa.OpRSub:
		v.Body = uprog.RSub(l, d, a, b, m)
	case isa.OpAnd:
		v.Body = uprog.Logic(l, uop.SrcAnd, d, a, b, m)
	case isa.OpOr:
		v.Body = uprog.Logic(l, uop.SrcOr, d, a, b, m)
	case isa.OpXor:
		v.Body = uprog.Logic(l, uop.SrcXor, d, a, b, m)
	case isa.OpSAdd:
		v.Body, v.DataIn = uprog.SatAdd(l, d, a, b, m), SatConsts
	case isa.OpSAddU:
		v.Body = uprog.SatAddU(l, d, a, b, m)
	case isa.OpSSub:
		v.Body, v.DataIn = uprog.SatSub(l, d, a, b, m), SatConsts
	case isa.OpSSubU:
		v.Body = uprog.SatSubU(l, d, a, b, m)
	case isa.OpMin:
		v.Body = uprog.MinMax(l, false, true, d, a, b, m)
	case isa.OpMax:
		v.Body = uprog.MinMax(l, true, true, d, a, b, m)
	case isa.OpMinU:
		v.Body = uprog.MinMax(l, false, false, d, a, b, m)
	case isa.OpMaxU:
		v.Body = uprog.MinMax(l, true, false, d, a, b, m)
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		kind := uprog.ShSLL
		switch in.Op {
		case isa.OpSrl:
			kind = uprog.ShSRL
		case isa.OpSra:
			kind = uprog.ShSRA
		}
		if !vx {
			v.Body = uprog.ShiftVV(l, kind, d, a, b, m)
			break
		}
		// The VSU resolves the scalar amount at decode: no broadcast.
		k := int(ShiftAmount(in))
		v.Prologue, v.Body = nil, uprog.ShiftImm(l, kind, d, a, k, m)
		if kind == uprog.ShSRA && k%l.N != 0 {
			v.DataIn = SignFill
		}
	case isa.OpMerge:
		// Merge reads v0 itself; the Masked bit is not a tail predicate.
		v.Body = uprog.Merge(l, d, a, b)
	case isa.OpMv:
		if vx {
			// vmv.v.x writes the broadcast directly to the destination.
			v.Prologue, v.Body, v.DataIn = nil, uprog.WriteExt(l, d, m), Broadcast
		} else {
			v.Body = uprog.Copy(l, d, a, m)
		}
	case isa.OpMul:
		v.Body = uprog.Mul(l, d, a, b, m, false)
	case isa.OpMacc:
		v.Body = uprog.Mul(l, d, a, b, m, true)
	case isa.OpMulH:
		v.Body = uprog.MulH(l, d, a, b, m)
	case isa.OpDiv:
		v.Body, v.DataIn = uprog.DivRem(l, uprog.DivS, d, a, b, m), DivConsts
	case isa.OpDivU:
		v.Body, v.DataIn = uprog.DivRem(l, uprog.DivU, d, a, b, m), DivConsts
	case isa.OpRem:
		v.Body, v.DataIn = uprog.DivRem(l, uprog.RemS, d, a, b, m), DivConsts
	case isa.OpRemU:
		v.Body, v.DataIn = uprog.DivRem(l, uprog.RemU, d, a, b, m), DivConsts
	case isa.OpMSeq:
		v.Body = uprog.Compare(l, uprog.CmpEq, d, a, b, m)
	case isa.OpMSne:
		v.Body = uprog.Compare(l, uprog.CmpNe, d, a, b, m)
	case isa.OpMSlt:
		v.Body = uprog.Compare(l, uprog.CmpLt, d, a, b, m)
	case isa.OpMSltU:
		v.Body = uprog.Compare(l, uprog.CmpLtu, d, a, b, m)
	case isa.OpMSle:
		v.Body = uprog.Compare(l, uprog.CmpLe, d, a, b, m)
	case isa.OpMSleU:
		v.Body = uprog.Compare(l, uprog.CmpLeu, d, a, b, m)
	case isa.OpMSgt:
		v.Body = uprog.Compare(l, uprog.CmpGt, d, a, b, m)
	case isa.OpMSgtU:
		v.Body = uprog.Compare(l, uprog.CmpGtu, d, a, b, m)
	default:
		return VSUOp{}
	}
	return v
}
