package sim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/workloads"
)

// Stream is one run's recorded functional event stream. isa.Sink.Emit
// returns nothing to the builder, so without a datapath the events a kernel
// emits depend only on the kernel, the builder's hardware vector length and
// whether the system has a vector engine, never on the timing models they
// feed: a stream Record took on one memory system replays into any other
// system with the same hardware vector length and kind of engine, and
// Replay's Result equals the Result Run would give there.
//
// The events are kept as a compact byte log (see appendEvent), not as
// copied instructions. A Stream is immutable once Record returns it, so any
// number of Replay calls may read it concurrently.
type Stream struct {
	log    []byte
	hwvl   int
	vector bool // recorded on a system with a vector engine
	kernel string
	mix    isa.Mix
	err    error // the kernel's output validation verdict
}

// Bytes returns the encoded event log. Its storage may be handed to a later
// Record once no Replay reads the stream any more.
func (st *Stream) Bytes() []byte { return st.log }

// recorder is the tee sink of a recording run: it appends each event to the
// log, then hands it on to the system's timing models.
type recorder struct {
	sys   *System
	log   []byte
	limit int
	over  bool   // the log passed limit; the recording is abandoned
	prev  uint64 // the last scalar access address, for delta coding
}

// Emit implements isa.Sink.
func (r *recorder) Emit(ev isa.Event) {
	if !r.over {
		r.log = appendEvent(r.log, ev, &r.prev)
		r.over = len(r.log) > r.limit
	}
	r.sys.Emit(ev)
}

// Record is Run that also records the run's event stream, encoding it into
// buf's storage (buf may be nil; a reused buffer whose capacity covers the
// stream makes the recording allocation-free). The Result is exactly Run's.
// The stream is nil when the run aborted with a recovered SimError, or when
// its log outgrew limit bytes: such a kernel is run live, not replayed.
func Record(cfg Config, k *workloads.Kernel, buf []byte, limit int) (Result, *Stream) {
	rec := &recorder{log: buf[:0], limit: limit}
	s := build(cfg, cfg.hierarchy(), cfg.eveConfig(), runMemBytes, nil, rec)
	rec.sys = s
	res := s.run(k, runOpts{})
	if _, aborted := res.Err.(*SimError); aborted || rec.over {
		return res, nil
	}
	return res, &Stream{
		log:    rec.log,
		hwvl:   s.b.HWVL(),
		vector: s.engine != nil,
		kernel: k.Name,
		mix:    res.Mix,
		err:    res.Err,
	}
}

// Replay feeds a recorded stream into cfg's timing models: it builds the
// system, spawns EVE, emits every recorded event, finishes, and takes Mix,
// Kernel and Err from the recording. Its Result equals Run's for the
// recorded kernel on cfg — a typed panic in a timing model (the
// micro-program watchdog) is recovered into the same SimError at the same
// cycle — so long as cfg has the recording system's hardware vector length
// and the same kind of engine, which Replay checks. It never touches the
// stream's bytes.
func Replay(cfg Config, st *Stream) (res Result) {
	s := build(cfg, cfg.hierarchy(), cfg.eveConfig(), runMemBytes, nil, nil)
	if s.b.HWVL() != st.hwvl || (s.engine != nil) != st.vector {
		panic(fmt.Sprintf("sim: stream of %s recorded at hwvl %d (vector %t) replayed on %s at hwvl %d (vector %t)",
			st.kernel, st.hwvl, st.vector, cfg.Name(), s.b.HWVL(), s.engine != nil))
	}
	defer func() {
		if p := recover(); p != nil {
			res = s.abort(st.kernel, p)
		}
	}()
	s.spawn()
	st.play(s)
	res = s.Finish()
	res.Mix, res.Kernel, res.Err = st.mix, st.kernel, st.err
	return res
}

// play decodes the log event by event into one reused instruction slot and
// one reused address buffer — the lifetimes isa.Event documents — and emits
// each into s.
func (st *Stream) play(s *System) {
	d := decoder{log: st.log}
	for d.off < len(d.log) {
		s.Emit(d.next())
	}
}

// The event encoding: one kind byte, whose low three bits are the
// isa.EventKind and whose high bits flag the optional fields, then the
// fields as varints. Ints and unsigned fields are uvarints of their 64-bit
// two's-complement pattern (small non-negative values take one byte; a
// negative one takes ten but still round-trips); signed deltas are zigzag
// varints.
//
//	EvScalar, EvScalarMul  kind  N
//	EvLoad, EvStore        kind  [N if flagN]  Addr − previous scalar Addr
//	EvVector               kind  Op Kind Vd Vs1 Vs2 VL  [Scalar] [Addr]
//	                       [Stride]  [len(Addrs)  Addrs[i] − Addrs[i−1] …]
//
// Each event records only the fields its kind carries: V on a scalar event
// and N or Addr on a vector event are not kept (the Builder leaves them
// zero). Gather and scatter addresses are delta-coded from the
// instruction's base Addr, scalar addresses from the previous scalar
// access; the deltas wrap, so addresses near 2⁶⁴ round-trip too.
const (
	kindBits = 0x07

	flagN = 1 << 3 // load/store: N ≠ 1 follows

	flagMasked = 1 << 3 // vector: Masked
	flagScalar = 1 << 4 // vector: Scalar ≠ 0 follows
	flagAddr   = 1 << 5 // vector: Addr ≠ 0 follows
	flagStride = 1 << 6 // vector: Stride ≠ 0 follows
	flagAddrs  = 1 << 7 // vector: Addrs ≠ nil follows (possibly empty)
)

// appendEvent appends ev's encoding to log; prev is the previous scalar
// access address, which it advances.
func appendEvent(log []byte, ev isa.Event, prev *uint64) []byte {
	var b byte
	switch ev.Kind {
	case isa.EvScalar, isa.EvScalarMul:
		b = byte(ev.Kind)
	case isa.EvLoad, isa.EvStore:
		b = byte(ev.Kind)
		if ev.N != 1 {
			b |= flagN
		}
	case isa.EvVector:
		in := ev.V
		b = byte(isa.EvVector)
		if in.Masked {
			b |= flagMasked
		}
		if in.Scalar != 0 {
			b |= flagScalar
		}
		if in.Addr != 0 {
			b |= flagAddr
		}
		if in.Stride != 0 {
			b |= flagStride
		}
		if in.Addrs != nil {
			b |= flagAddrs
		}
	default:
		panic(fmt.Sprintf("sim: cannot record event kind %d", ev.Kind))
	}
	//evelint:allow hotalloc -- amortized: the log grows by doubling within a recording, and a reused buffer already holds the stream
	log = append(log, b)
	switch ev.Kind {
	case isa.EvScalar, isa.EvScalarMul:
		return binary.AppendUvarint(log, uint64(ev.N))
	case isa.EvLoad, isa.EvStore:
		if b&flagN != 0 {
			log = binary.AppendUvarint(log, uint64(ev.N))
		}
		log = binary.AppendVarint(log, int64(ev.Addr-*prev))
		*prev = ev.Addr
		return log
	}
	in := ev.V
	log = binary.AppendUvarint(log, uint64(in.Op))
	log = binary.AppendUvarint(log, uint64(in.Kind))
	log = binary.AppendUvarint(log, uint64(in.Vd))
	log = binary.AppendUvarint(log, uint64(in.Vs1))
	log = binary.AppendUvarint(log, uint64(in.Vs2))
	log = binary.AppendUvarint(log, uint64(in.VL))
	if b&flagScalar != 0 {
		log = binary.AppendUvarint(log, uint64(in.Scalar))
	}
	if b&flagAddr != 0 {
		log = binary.AppendUvarint(log, in.Addr)
	}
	if b&flagStride != 0 {
		log = binary.AppendVarint(log, in.Stride)
	}
	if b&flagAddrs != 0 {
		log = binary.AppendUvarint(log, uint64(len(in.Addrs)))
		last := in.Addr
		for _, a := range in.Addrs {
			log = binary.AppendVarint(log, int64(a-last))
			last = a
		}
	}
	return log
}

// decoder walks a log, decoding into one reused instruction slot and one
// reused address buffer.
type decoder struct {
	log   []byte
	off   int
	prev  uint64 // the last scalar access address
	in    isa.Instr
	addrs []uint64
}

// uvarint decodes the next uvarint field. Most fields fit one byte, a
// path short enough to inline.
func (d *decoder) uvarint() uint64 {
	if b := d.log[d.off]; b < 0x80 {
		d.off++
		return uint64(b)
	}
	return d.uvarintLong()
}

// uvarintLong decodes a uvarint field of more than one byte.
func (d *decoder) uvarintLong() uint64 {
	v, n := binary.Uvarint(d.log[d.off:])
	if n <= 0 {
		panic(fmt.Sprintf("sim: corrupt event stream at byte %d", d.off))
	}
	d.off += n
	return v
}

// varint decodes the next zigzag varint field.
func (d *decoder) varint() int64 {
	if b := d.log[d.off]; b < 0x80 {
		d.off++
		return int64(b>>1) ^ -int64(b&1)
	}
	return d.varintLong()
}

// varintLong decodes a zigzag varint field of more than one byte.
func (d *decoder) varintLong() int64 {
	v, n := binary.Varint(d.log[d.off:])
	if n <= 0 {
		panic(fmt.Sprintf("sim: corrupt event stream at byte %d", d.off))
	}
	d.off += n
	return v
}

// next decodes the event at the decoder's offset. A vector event's V points
// at the decoder's slot and V.Addrs at its buffer, both valid until the
// next call.
func (d *decoder) next() isa.Event {
	b := d.log[d.off]
	d.off++
	kind := isa.EventKind(b & kindBits)
	switch kind {
	case isa.EvScalar, isa.EvScalarMul:
		return isa.Event{Kind: kind, N: int(d.uvarint())}
	case isa.EvLoad, isa.EvStore:
		n := 1
		if b&flagN != 0 {
			n = int(d.uvarint())
		}
		d.prev += uint64(d.varint())
		return isa.Event{Kind: kind, N: n, Addr: d.prev}
	case isa.EvVector:
	default:
		panic(fmt.Sprintf("sim: corrupt event stream: kind %d at byte %d", kind, d.off-1))
	}
	in := &d.in
	in.Op = isa.Op(d.uvarint())
	in.Kind = isa.OperandKind(d.uvarint())
	in.Vd = int(d.uvarint())
	in.Vs1 = int(d.uvarint())
	in.Vs2 = int(d.uvarint())
	in.VL = int(d.uvarint())
	in.Masked = b&flagMasked != 0
	in.Scalar, in.Addr, in.Stride, in.Addrs = 0, 0, 0, nil
	if b&flagScalar != 0 {
		in.Scalar = uint32(d.uvarint())
	}
	if b&flagAddr != 0 {
		in.Addr = d.uvarint()
	}
	if b&flagStride != 0 {
		in.Stride = d.varint()
	}
	if b&flagAddrs != 0 {
		n := int(d.uvarint())
		if d.addrs == nil || cap(d.addrs) < n {
			//evelint:allow hotalloc -- amortized: grows to the stream's widest indexed access once, then reuses
			d.addrs = make([]uint64, n)
		}
		addrs := d.addrs[:n]
		last := in.Addr
		for i := range addrs {
			last += uint64(d.varint())
			addrs[i] = last
		}
		in.Addrs = addrs
	}
	return isa.Event{Kind: isa.EvVector, V: in}
}
