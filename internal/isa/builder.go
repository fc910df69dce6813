package isa

import (
	"fmt"

	"repro/internal/mem"
)

// Builder is the vectorized program: kernels call its intrinsic-style
// methods, which execute functionally against golden vector registers and
// flat memory while streaming the dynamic instruction trace to a Sink.
//
// Strip-mining works exactly as in RVV code: SetVL(remaining) returns
// min(remaining, HWVL), so the same kernel source adapts its dynamic
// instruction count to each machine's hardware vector length — short for an
// integrated unit (VL=4), long for EVE (VL up to 2048).
//
// Each register grows on its own, on first touch, the way mem.Flat grows
// to its high-water mark: to the highest VL the program uses it at, or to
// HWVL once a datapath is attached, since Datapath exchanges HWVL
// elements. Every element past a register's width reads as the zero it
// would hold in a file allocated at HWVL, so a run pays only for the
// registers it touches, at the widths it touches them.
type Builder struct {
	Mem *mem.Flat

	hwvl   int
	vl     int
	regs   [32][]uint32 // each max(its high-water VL, 1) ≤ hwvl wide, or 0 if untouched
	sink   Sink
	mix    Mix
	masked bool
	dp     Datapath

	// Emission state reused across instructions; see Event for lifetimes.
	in      Instr    // the instruction being emitted
	addrs   []uint64 // in.Addrs of an indexed access
	scratch []uint32 // vrgather's result before it lands in vd
}

// NewBuilder returns a builder for a machine with the given hardware vector
// length. sink may be nil for functional-only runs.
func NewBuilder(m *mem.Flat, hwvl int, sink Sink) *Builder {
	if hwvl <= 0 {
		panic(fmt.Sprintf("isa: invalid hardware vector length %d", hwvl))
	}
	return &Builder{Mem: m, hwvl: hwvl, vl: hwvl, sink: sink}
}

// HWVL reports the machine's hardware vector length.
func (b *Builder) HWVL() int { return b.hwvl }

// VL reports the current active vector length.
func (b *Builder) VL() int { return b.vl }

// Mix returns the accumulated instruction characterization.
func (b *Builder) Mix() Mix { return b.mix }

// VReg returns the live golden contents of a vector register (verification):
// HWVL elements, those past r's high-water VL zero.
func (b *Builder) VReg(r int) []uint32 {
	b.grow(r, b.hwvl)
	return b.regs[r]
}

// reg returns vector register r, first growing it to cover the active VL
// and element 0, which scalar moves and reductions address even at VL 0 —
// or to HWVL with a datapath attached, the width Datapath exchanges.
func (b *Builder) reg(r int) []uint32 {
	n := max(b.vl, 1)
	if b.dp != nil {
		n = b.hwvl
	}
	if len(b.regs[r]) < n {
		b.grow(r, n)
	}
	return b.regs[r]
}

// grow widens register r to at least n elements (at least doubling, at
// most HWVL), keeping its contents; the new elements are zero.
func (b *Builder) grow(r, n int) {
	old := b.regs[r]
	if n <= len(old) {
		return
	}
	n = min(max(n, 2*len(old)), b.hwvl)
	//evelint:allow hotalloc -- amortized: at least doubles up to HWVL, so a run grows each register at most log2(HWVL)+1 times
	b.regs[r] = make([]uint32, n)
	copy(b.regs[r], old)
}

// SetMasked toggles predication (the .vm suffix) for subsequent vector
// operations; the predicate is v0's element LSBs, per RVV.
func (b *Builder) SetMasked(on bool) { b.masked = on }

// SetDatapath attaches an execution substrate. Registers must not hold live
// data when the substrate is attached — attach before the kernel runs. From
// then on each register grows straight to HWVL, the width Datapath
// exchanges, when it is first touched.
func (b *Builder) SetDatapath(dp Datapath) { b.dp = dp }

// emitV stamps in with the active VL and predication, counts it, emits it
// from the builder's instruction slot and replays it on the datapath.
func (b *Builder) emitV(in Instr) {
	in.VL = b.vl
	in.Masked = in.Masked || b.masked
	b.mix.VectorInstrs++
	b.mix.VectorOps += uint64(b.vl)
	b.mix.ByClass[Classify(in.Op)]++
	if in.Masked && in.Op != OpSetVL && in.Op != OpFence {
		b.mix.Predicated++
	}
	b.in = in
	if b.sink != nil {
		b.sink.Emit(Event{Kind: EvVector, V: &b.in})
	}
	b.execDP(&b.in)
}

// emitCtrl emits a vector control instruction (vsetvl, vmfence): counted as
// ClassCtrl and never replayed on the datapath.
func (b *Builder) emitCtrl(op Op) {
	b.mix.VectorInstrs++
	b.mix.ByClass[ClassCtrl]++
	if b.sink != nil {
		b.in = Instr{Op: op, VL: b.vl}
		b.sink.Emit(Event{Kind: EvVector, V: &b.in})
	}
}

// addrBuf returns the reused buffer for an indexed access's VL element
// addresses.
func (b *Builder) addrBuf() []uint64 {
	if cap(b.addrs) < b.vl {
		//evelint:allow hotalloc -- amortized: grows to the highest indexed VL once, then reuses
		b.addrs = make([]uint64, b.vl)
	}
	return b.addrs[:b.vl]
}

// execDP replays a register-writing instruction on the attached datapath and
// adopts the substrate's destination contents as the architectural result.
// Instructions without a vector destination only leave data through the
// builder, which syncs their source registers before consuming them.
func (b *Builder) execDP(in *Instr) {
	if b.dp == nil {
		return
	}
	switch in.Op {
	case OpSetVL, OpFence, OpStore, OpStoreStride, OpStoreIdx, OpMvXS, OpNop:
		return
	}
	copy(b.reg(in.Vd), b.dp.Exec(in, b.reg(in.Vd)))
}

// syncDP refreshes the golden mirror of the given registers from the
// datapath, so values consumed outside the vector arrays — stores, scalar
// reads, gather/scatter addressing, VRU inputs — observe any fault state
// the substrate accumulated since the registers were written. A nil Read
// (the register is unchanged since it was last adopted) copies nothing.
func (b *Builder) syncDP(rs ...int) {
	if b.dp == nil {
		return
	}
	for _, r := range rs {
		copy(b.reg(r), b.dp.Read(r))
	}
}

// mask returns v0, the predicate, when predication is on, and nil when it
// is off. Fetching it through reg grows v0 to cover VL, since it may have
// been written at a shorter VL than the op runs at.
func (b *Builder) mask() []uint32 {
	if !b.masked {
		return nil
	}
	return b.reg(0)
}

// active reports whether element i executes under mask m (nil: all do).
func active(m []uint32, i int) bool {
	return m == nil || m[i]&1 == 1
}

// SetVL requests avl elements and returns the granted active vector length,
// min(avl, HWVL) — the vsetvli of a strip-mined loop.
func (b *Builder) SetVL(avl int) int {
	if avl < 0 {
		panic("isa: negative requested vector length")
	}
	b.vl = min(avl, b.hwvl)
	b.emitCtrl(OpSetVL)
	return b.vl
}

// Fence emits a vector memory fence (vmfence, §V-A).
func (b *Builder) Fence() { b.emitCtrl(OpFence) }

// binVV executes and emits a vector-vector binary operation.
func (b *Builder) binVV(op Op, vd, vs1, vs2 int, f func(x, y uint32) uint32) {
	m := b.mask()
	d, s1, s2 := b.reg(vd), b.reg(vs1), b.reg(vs2)
	for i := 0; i < b.vl; i++ {
		if active(m, i) {
			d[i] = f(s1[i], s2[i])
		}
	}
	b.emitV(Instr{Op: op, Kind: KindVV, Vd: vd, Vs1: vs1, Vs2: vs2})
}

// binVX executes and emits a vector-scalar binary operation.
func (b *Builder) binVX(op Op, vd, vs1 int, x uint32, f func(a, y uint32) uint32) {
	m := b.mask()
	d, s1 := b.reg(vd), b.reg(vs1)
	for i := 0; i < b.vl; i++ {
		if active(m, i) {
			d[i] = f(s1[i], x)
		}
	}
	b.emitV(Instr{Op: op, Kind: KindVX, Vd: vd, Vs1: vs1, Scalar: x})
}

// Integer ALU operations.

func (b *Builder) Add(vd, vs1, vs2 int) {
	b.binVV(OpAdd, vd, vs1, vs2, func(x, y uint32) uint32 { return x + y })
}
func (b *Builder) Sub(vd, vs1, vs2 int) {
	b.binVV(OpSub, vd, vs1, vs2, func(x, y uint32) uint32 { return x - y })
}
func (b *Builder) And(vd, vs1, vs2 int) {
	b.binVV(OpAnd, vd, vs1, vs2, func(x, y uint32) uint32 { return x & y })
}
func (b *Builder) Or(vd, vs1, vs2 int) {
	b.binVV(OpOr, vd, vs1, vs2, func(x, y uint32) uint32 { return x | y })
}
func (b *Builder) Xor(vd, vs1, vs2 int) {
	b.binVV(OpXor, vd, vs1, vs2, func(x, y uint32) uint32 { return x ^ y })
}

func (b *Builder) AddVX(vd, vs1 int, x uint32) {
	b.binVX(OpAdd, vd, vs1, x, func(a, y uint32) uint32 { return a + y })
}
func (b *Builder) SubVX(vd, vs1 int, x uint32) {
	b.binVX(OpSub, vd, vs1, x, func(a, y uint32) uint32 { return a - y })
}
func (b *Builder) RSubVX(vd, vs1 int, x uint32) {
	b.binVX(OpRSub, vd, vs1, x, func(a, y uint32) uint32 { return y - a })
}
func (b *Builder) AndVX(vd, vs1 int, x uint32) {
	b.binVX(OpAnd, vd, vs1, x, func(a, y uint32) uint32 { return a & y })
}

func (b *Builder) Min(vd, vs1, vs2 int) {
	b.binVV(OpMin, vd, vs1, vs2, func(x, y uint32) uint32 { return uint32(min(int32(x), int32(y))) })
}
func (b *Builder) Max(vd, vs1, vs2 int) {
	b.binVV(OpMax, vd, vs1, vs2, func(x, y uint32) uint32 { return uint32(max(int32(x), int32(y))) })
}
func (b *Builder) MinU(vd, vs1, vs2 int) {
	b.binVV(OpMinU, vd, vs1, vs2, func(x, y uint32) uint32 { return min(x, y) })
}
func (b *Builder) MaxU(vd, vs1, vs2 int) {
	b.binVV(OpMaxU, vd, vs1, vs2, func(x, y uint32) uint32 { return max(x, y) })
}
func (b *Builder) MaxVX(vd, vs1 int, x uint32) {
	b.binVX(OpMax, vd, vs1, x, func(a, y uint32) uint32 { return uint32(max(int32(a), int32(y))) })
}

func (b *Builder) SllVX(vd, vs1 int, sh uint32) {
	b.binVX(OpSll, vd, vs1, sh, func(a, y uint32) uint32 { return a << (y & 31) })
}
func (b *Builder) SrlVX(vd, vs1 int, sh uint32) {
	b.binVX(OpSrl, vd, vs1, sh, func(a, y uint32) uint32 { return a >> (y & 31) })
}
func (b *Builder) SraVX(vd, vs1 int, sh uint32) {
	b.binVX(OpSra, vd, vs1, sh, func(a, y uint32) uint32 { return uint32(int32(a) >> (y & 31)) })
}
func (b *Builder) Sll(vd, vs1, vs2 int) {
	b.binVV(OpSll, vd, vs1, vs2, func(a, y uint32) uint32 { return a << (y & 31) })
}
func (b *Builder) Srl(vd, vs1, vs2 int) {
	b.binVV(OpSrl, vd, vs1, vs2, func(a, y uint32) uint32 { return a >> (y & 31) })
}
func (b *Builder) OrVX(vd, vs1 int, x uint32) {
	b.binVX(OpOr, vd, vs1, x, func(a, y uint32) uint32 { return a | y })
}
func (b *Builder) XorVX(vd, vs1 int, x uint32) {
	b.binVX(OpXor, vd, vs1, x, func(a, y uint32) uint32 { return a ^ y })
}
func (b *Builder) MSgtUVX(vd, vs1 int, x uint32) {
	b.binVX(OpMSgtU, vd, vs1, x, func(a, y uint32) uint32 { return b2u(a > y) })
}
func (b *Builder) MSltUVX(vd, vs1 int, x uint32) {
	b.binVX(OpMSltU, vd, vs1, x, func(a, y uint32) uint32 { return b2u(a < y) })
}
func (b *Builder) MSeqVX(vd, vs1 int, x uint32) {
	b.binVX(OpMSeq, vd, vs1, x, func(a, y uint32) uint32 { return b2u(a == y) })
}

// Multiply / divide.

func (b *Builder) Mul(vd, vs1, vs2 int) {
	b.binVV(OpMul, vd, vs1, vs2, func(x, y uint32) uint32 { return x * y })
}
func (b *Builder) MulVX(vd, vs1 int, x uint32) {
	b.binVX(OpMul, vd, vs1, x, func(a, y uint32) uint32 { return a * y })
}
func (b *Builder) MulH(vd, vs1, vs2 int) {
	b.binVV(OpMulH, vd, vs1, vs2, func(x, y uint32) uint32 { return uint32(uint64(x) * uint64(y) >> 32) })
}

// MaccVX performs vd[i] += x*vs1[i] (vmacc.vx).
func (b *Builder) MaccVX(vd, vs1 int, x uint32) {
	m := b.mask()
	d, s1 := b.reg(vd), b.reg(vs1)
	for i := 0; i < b.vl; i++ {
		if active(m, i) {
			d[i] += x * s1[i]
		}
	}
	b.emitV(Instr{Op: OpMacc, Kind: KindVX, Vd: vd, Vs1: vs1, Scalar: x})
}

// Macc performs vd[i] += vs1[i]*vs2[i] (vmacc.vv).
func (b *Builder) Macc(vd, vs1, vs2 int) {
	m := b.mask()
	d, s1, s2 := b.reg(vd), b.reg(vs1), b.reg(vs2)
	for i := 0; i < b.vl; i++ {
		if active(m, i) {
			d[i] += s1[i] * s2[i]
		}
	}
	b.emitV(Instr{Op: OpMacc, Kind: KindVV, Vd: vd, Vs1: vs1, Vs2: vs2})
}

func (b *Builder) DivU(vd, vs1, vs2 int) {
	b.binVV(OpDivU, vd, vs1, vs2, func(x, y uint32) uint32 {
		if y == 0 {
			return ^uint32(0)
		}
		return x / y
	})
}
func (b *Builder) Div(vd, vs1, vs2 int) {
	b.binVV(OpDiv, vd, vs1, vs2, func(x, y uint32) uint32 {
		sx, sy := int32(x), int32(y)
		switch {
		case sy == 0:
			return ^uint32(0)
		case sx == -1<<31 && sy == -1:
			return x
		default:
			return uint32(sx / sy)
		}
	})
}
func (b *Builder) DivVX(vd, vs1 int, x uint32) {
	b.binVX(OpDiv, vd, vs1, x, func(a, y uint32) uint32 {
		sa, sy := int32(a), int32(y)
		switch {
		case sy == 0:
			return ^uint32(0)
		case sa == -1<<31 && sy == -1:
			return a
		default:
			return uint32(sa / sy)
		}
	})
}

// Compares (mask-producing, stored as 0/1 values).

func (b *Builder) MSeq(vd, vs1, vs2 int) {
	b.binVV(OpMSeq, vd, vs1, vs2, func(x, y uint32) uint32 { return b2u(x == y) })
}
func (b *Builder) MSne(vd, vs1, vs2 int) {
	b.binVV(OpMSne, vd, vs1, vs2, func(x, y uint32) uint32 { return b2u(x != y) })
}
func (b *Builder) MSlt(vd, vs1, vs2 int) {
	b.binVV(OpMSlt, vd, vs1, vs2, func(x, y uint32) uint32 { return b2u(int32(x) < int32(y)) })
}
func (b *Builder) MSltU(vd, vs1, vs2 int) {
	b.binVV(OpMSltU, vd, vs1, vs2, func(x, y uint32) uint32 { return b2u(x < y) })
}
func (b *Builder) MSltVX(vd, vs1 int, x uint32) {
	b.binVX(OpMSlt, vd, vs1, x, func(a, y uint32) uint32 { return b2u(int32(a) < int32(y)) })
}
func (b *Builder) MSgtVX(vd, vs1 int, x uint32) {
	b.binVX(OpMSgt, vd, vs1, x, func(a, y uint32) uint32 { return b2u(int32(a) > int32(y)) })
}

// Merge performs vd[i] = v0[i] ? vs1[i] : vs2[i] (vmerge.vvm).
func (b *Builder) Merge(vd, vs1, vs2 int) {
	d, s1, s2, m := b.reg(vd), b.reg(vs1), b.reg(vs2), b.reg(0)
	for i := 0; i < b.vl; i++ {
		if m[i]&1 == 1 {
			d[i] = s1[i]
		} else {
			d[i] = s2[i]
		}
	}
	b.emitV(Instr{Op: OpMerge, Kind: KindVV, Vd: vd, Vs1: vs1, Vs2: vs2, Masked: true})
}

// Mv copies a register (vmv.v.v).
func (b *Builder) Mv(vd, vs1 int) {
	b.binVV(OpMv, vd, vs1, vs1, func(x, _ uint32) uint32 { return x })
}

// MvVX broadcasts a scalar (vmv.v.x).
func (b *Builder) MvVX(vd int, x uint32) {
	b.binVX(OpMv, vd, vd, x, func(_, y uint32) uint32 { return y })
}

// VId writes element indices 0..vl-1 (vid.v).
func (b *Builder) VId(vd int) {
	m := b.mask()
	d := b.reg(vd)
	for i := 0; i < b.vl; i++ {
		if active(m, i) {
			d[i] = uint32(i)
		}
	}
	b.emitV(Instr{Op: OpVId, Kind: KindVV, Vd: vd})
}

// Memory operations. Loads and stores move 32-bit elements; indexed forms
// take byte offsets in the index register, per RVV.

func (b *Builder) Load(vd int, addr uint64) {
	d := b.reg(vd)
	for i := 0; i < b.vl; i++ {
		d[i] = b.Mem.LoadU32(addr + uint64(4*i))
	}
	b.emitV(Instr{Op: OpLoad, Vd: vd, Addr: addr})
}

func (b *Builder) Store(vs int, addr uint64) {
	b.syncDP(vs)
	s := b.reg(vs)
	for i := 0; i < b.vl; i++ {
		b.Mem.StoreU32(addr+uint64(4*i), s[i])
	}
	b.emitV(Instr{Op: OpStore, Vs1: vs, Addr: addr})
}

func (b *Builder) LoadStride(vd int, addr uint64, stride int64) {
	d := b.reg(vd)
	for i := 0; i < b.vl; i++ {
		d[i] = b.Mem.LoadU32(uint64(int64(addr) + int64(i)*stride))
	}
	b.emitV(Instr{Op: OpLoadStride, Vd: vd, Addr: addr, Stride: stride})
}

func (b *Builder) StoreStride(vs int, addr uint64, stride int64) {
	b.syncDP(vs)
	s := b.reg(vs)
	for i := 0; i < b.vl; i++ {
		b.Mem.StoreU32(uint64(int64(addr)+int64(i)*stride), s[i])
	}
	b.emitV(Instr{Op: OpStoreStride, Vs1: vs, Addr: addr, Stride: stride})
}

func (b *Builder) LoadIdx(vd int, base uint64, vidx int) {
	b.syncDP(vidx)
	d, ix := b.reg(vd), b.reg(vidx)
	addrs := b.addrBuf()
	for i := 0; i < b.vl; i++ {
		addrs[i] = base + uint64(ix[i])
		d[i] = b.Mem.LoadU32(addrs[i])
	}
	b.emitV(Instr{Op: OpLoadIdx, Vd: vd, Vs2: vidx, Addr: base, Addrs: addrs})
}

func (b *Builder) StoreIdx(vs int, base uint64, vidx int) {
	b.syncDP(vs, vidx)
	s, ix := b.reg(vs), b.reg(vidx)
	addrs := b.addrBuf()
	for i := 0; i < b.vl; i++ {
		addrs[i] = base + uint64(ix[i])
		b.Mem.StoreU32(addrs[i], s[i])
	}
	b.emitV(Instr{Op: OpStoreIdx, Vs1: vs, Vs2: vidx, Addr: base, Addrs: addrs})
}

// Reductions follow RVV: vd[0] = vs1[0] reduced with vs2[0..vl-1], and vd
// is not updated at VL 0 (RVV 1.0 §14).

// setElem0 writes v into element 0 of vd unless VL is 0: the writeback of
// the reductions and vmv.s.x.
func (b *Builder) setElem0(vd int, v uint32) {
	if b.vl > 0 {
		b.reg(vd)[0] = v
	}
}

func (b *Builder) RedSum(vd, vs2, vs1 int) {
	b.syncDP(vs1, vs2)
	s := b.reg(vs2)
	acc := b.reg(vs1)[0]
	for i := 0; i < b.vl; i++ {
		acc += s[i]
	}
	b.setElem0(vd, acc)
	b.emitV(Instr{Op: OpRedSum, Vd: vd, Vs1: vs1, Vs2: vs2})
}

func (b *Builder) RedMin(vd, vs2, vs1 int) {
	b.syncDP(vs1, vs2)
	s := b.reg(vs2)
	acc := int32(b.reg(vs1)[0])
	for i := 0; i < b.vl; i++ {
		acc = min(acc, int32(s[i]))
	}
	b.setElem0(vd, uint32(acc))
	b.emitV(Instr{Op: OpRedMin, Vd: vd, Vs1: vs1, Vs2: vs2})
}

func (b *Builder) RedMax(vd, vs2, vs1 int) {
	b.syncDP(vs1, vs2)
	s := b.reg(vs2)
	acc := int32(b.reg(vs1)[0])
	for i := 0; i < b.vl; i++ {
		acc = max(acc, int32(s[i]))
	}
	b.setElem0(vd, uint32(acc))
	b.emitV(Instr{Op: OpRedMax, Vd: vd, Vs1: vs1, Vs2: vs2})
}

func (b *Builder) RedMinU(vd, vs2, vs1 int) {
	b.syncDP(vs1, vs2)
	s := b.reg(vs2)
	acc := b.reg(vs1)[0]
	for i := 0; i < b.vl; i++ {
		acc = min(acc, s[i])
	}
	b.setElem0(vd, acc)
	b.emitV(Instr{Op: OpRedMinU, Vd: vd, Vs1: vs1, Vs2: vs2})
}

// Cross-element operations.

// Slide1Up performs vd[0] = x, vd[i] = vs[i-1] for 0 < i < vl
// (vslide1up.vx); at VL 0 it writes nothing.
func (b *Builder) Slide1Up(vd, vs int, x uint32) {
	b.syncDP(vs)
	s, d := b.reg(vs), b.reg(vd)
	if b.vl > 0 {
		copy(d[1:b.vl], s[:b.vl-1]) // copy is a memmove, so vd == vs is safe
		d[0] = x
	}
	b.emitV(Instr{Op: OpSlide1Up, Vd: vd, Vs1: vs, Scalar: x})
}

// Slide1Down performs vd[i] = vs[i+1] for i < vl-1, vd[vl-1] = x
// (vslide1down.vx); at VL 0 it writes nothing.
func (b *Builder) Slide1Down(vd, vs int, x uint32) {
	b.syncDP(vs)
	s, d := b.reg(vs), b.reg(vd)
	if b.vl > 0 {
		copy(d[:b.vl-1], s[1:b.vl])
		d[b.vl-1] = x
	}
	b.emitV(Instr{Op: OpSlide1Down, Vd: vd, Vs1: vs, Scalar: x})
}

// RGather performs vd[i] = vs2[vs1[i]] with out-of-range indices yielding 0.
func (b *Builder) RGather(vd, vs2, vs1 int) {
	b.syncDP(vs1, vs2)
	src, ix := b.reg(vs2), b.reg(vs1)
	if cap(b.scratch) < b.vl {
		//evelint:allow hotalloc -- amortized: grows to the highest gather VL once, then reuses
		b.scratch = make([]uint32, b.vl)
	}
	out := b.scratch[:b.vl] // vd may alias either source
	for i := range out {
		out[i] = 0
		if int(ix[i]) < b.vl {
			out[i] = src[ix[i]]
		}
	}
	copy(b.reg(vd), out)
	b.emitV(Instr{Op: OpRGather, Vd: vd, Vs1: vs1, Vs2: vs2})
}

// Scalar interface.

// MvXS reads element 0 to the scalar core (vmv.x.s); the control processor
// stalls commit awaiting EVE's reply (§V-A).
func (b *Builder) MvXS(vs int) uint32 {
	b.syncDP(vs)
	v := b.reg(vs)[0]
	b.emitV(Instr{Op: OpMvXS, Vs1: vs})
	return v
}

// MvSX writes the scalar into element 0 (vmv.s.x); at VL 0 it writes
// nothing (RVV 1.0 §16.1).
func (b *Builder) MvSX(vd int, x uint32) {
	b.setElem0(vd, x)
	b.emitV(Instr{Op: OpMvSX, Vd: vd, Scalar: x})
}

// Scalar-side trace emission: the loop control, address arithmetic and
// scalar memory traffic surrounding the vector code.

func (b *Builder) ScalarOps(n int) {
	if n <= 0 {
		return
	}
	b.mix.ScalarOps += uint64(n)
	if b.sink != nil {
		b.sink.Emit(Event{Kind: EvScalar, N: n})
	}
}

func (b *Builder) ScalarMuls(n int) {
	if n <= 0 {
		return
	}
	b.mix.ScalarMuls += uint64(n)
	if b.sink != nil {
		b.sink.Emit(Event{Kind: EvScalarMul, N: n})
	}
}

// ScalarLoad performs and traces one scalar 32-bit load.
func (b *Builder) ScalarLoad(addr uint64) uint32 {
	b.mix.ScalarLoads++
	if b.sink != nil {
		b.sink.Emit(Event{Kind: EvLoad, N: 1, Addr: addr})
	}
	return b.Mem.LoadU32(addr)
}

// ScalarStore performs and traces one scalar 32-bit store.
func (b *Builder) ScalarStore(addr uint64, v uint32) {
	b.mix.ScalarStore++
	if b.sink != nil {
		b.sink.Emit(Event{Kind: EvStore, N: 1, Addr: addr})
	}
	b.Mem.StoreU32(addr, v)
}

func b2u(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// Saturating arithmetic (vsadd/vsaddu/vssub/vssubu).

func (b *Builder) SAddU(vd, vs1, vs2 int) {
	b.binVV(OpSAddU, vd, vs1, vs2, func(x, y uint32) uint32 {
		if s := uint64(x) + uint64(y); s > 0xFFFFFFFF {
			return 0xFFFFFFFF
		}
		return x + y
	})
}

func (b *Builder) SSubU(vd, vs1, vs2 int) {
	b.binVV(OpSSubU, vd, vs1, vs2, func(x, y uint32) uint32 {
		if y > x {
			return 0
		}
		return x - y
	})
}

func (b *Builder) SAdd(vd, vs1, vs2 int) {
	b.binVV(OpSAdd, vd, vs1, vs2, func(x, y uint32) uint32 { return sat32(int64(int32(x)) + int64(int32(y))) })
}

func (b *Builder) SSub(vd, vs1, vs2 int) {
	b.binVV(OpSSub, vd, vs1, vs2, func(x, y uint32) uint32 { return sat32(int64(int32(x)) - int64(int32(y))) })
}

func sat32(s int64) uint32 {
	if s > 0x7FFFFFFF {
		return 0x7FFFFFFF
	}
	if s < -0x80000000 {
		return 0x80000000
	}
	return uint32(s)
}
