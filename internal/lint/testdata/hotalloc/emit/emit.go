// Package emit is the hotalloc fixture for the ISA builder's emit path;
// linttest checks it under repro/internal/isa. emitV, SetVL and LoadIdx
// are hot roots; Add reaches emitV but is not itself hot.
package emit

type Instr struct {
	Op    int
	VL    int
	Addrs []uint64
}

type Event struct{ V *Instr }

type Sink interface{ Emit(ev Event) }

type Builder struct {
	sink  Sink
	in    Instr
	vl    int
	addrs []uint64
}

func (b *Builder) emitV(in Instr) {
	in.VL = b.vl
	b.in = in
	b.sink.Emit(Event{V: &b.in})
	b.sink.Emit(Event{V: &Instr{Op: in.Op}}) // want `hot path \(\*Builder\)\.emitV: &Instr\{\} escapes to the heap`
}

func (b *Builder) SetVL(avl int) int {
	b.vl = avl
	b.emitV(Instr{Op: 1})
	return avl
}

func (b *Builder) LoadIdx() {
	addrs := make([]uint64, b.vl) // want `hot path \(\*Builder\)\.LoadIdx: make allocates on every call`
	b.emitV(Instr{Op: 2, Addrs: addrs})
	b.emitV(Instr{Op: 2, Addrs: b.addrBuf()})
}

// addrBuf is hot through LoadIdx; its growth is amortized.
func (b *Builder) addrBuf() []uint64 {
	if cap(b.addrs) < b.vl {
		//evelint:allow hotalloc -- amortized: grows to the highest VL once, then reuses
		b.addrs = make([]uint64, b.vl)
	}
	return b.addrs[:b.vl]
}

// Add calls emitV but no root calls Add, so its allocation is not flagged.
func (b *Builder) Add() {
	scratch := make([]uint32, b.vl)
	_ = scratch
	b.emitV(Instr{Op: 3})
}
