package probe

// EventKind types a trace event. The kind selects how renderers treat the
// event (Perfetto track drawing, CSV filtering); the Name carries the
// human-readable detail ("miss", "vadd.vv v3,v1,v2", a Fig 7 category).
type EventKind uint8

// Event kinds.
const (
	KInstr     EventKind = iota // instruction (or instruction batch) commit
	KDispatch                   // dispatch slot (VCU queue entry)
	KPhase                      // attributed engine phase span (busy, stalls, spawn)
	KAccess                     // memory access span (cache hit/miss, DRAM burst)
	KWriteback                  // dirty-line writeback
	KStall                      // structural stall span (MSHR, bank)
	KReconfig                   // reconfiguration edge (spawn, way borrow/return, teardown)
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"instr", "dispatch", "phase", "access", "writeback", "stall", "reconfig",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "?"
}

// Event is one cycle-stamped trace event. Begin and End are core-clock
// cycles; End == Begin marks an instant. The remaining fields are
// kind-specific payloads (zero when unused):
//
//   - KInstr: Seq is the per-component ordinal, Name the disassembly, VL
//     the active vector length, Aux the VCU dispatch slot and Aux2 the time
//     the core was blocked until (EVE); scalar batches carry the batch size
//     in Aux.
//   - KAccess/KWriteback: Addr is the line address.
type Event struct {
	Comp  string // dotted component path; one Perfetto track per Comp
	Kind  EventKind
	Name  string
	Begin int64
	End   int64
	Seq   uint64
	Addr  uint64
	VL    int
	Aux   int64
	Aux2  int64
}

// Tracer receives every event of a traced run, in deterministic emission
// order. Implementations are per-run objects (see the package comment); they
// must not be shared across concurrent runs.
type Tracer interface {
	Event(Event)
}

// Emitter binds a Tracer to a component path. The zero value is disabled:
// every method is a nil-check away from a no-op, which is the probe-free
// fast path. Components store an Emitter by value and guard any event
// construction work (disassembly, address math) behind On.
type Emitter struct {
	tr   Tracer
	comp string
}

// NewEmitter binds tr to the component path; a nil tr yields a disabled
// emitter.
func NewEmitter(tr Tracer, comp string) Emitter {
	if tr == nil {
		return Emitter{}
	}
	return Emitter{tr: tr, comp: comp}
}

// Child returns an emitter one path segment deeper ("eve" → "eve.vmu").
func (e Emitter) Child(name string) Emitter {
	if e.tr == nil {
		return Emitter{}
	}
	return Emitter{tr: e.tr, comp: e.comp + "." + name}
}

// On reports whether events will be delivered.
func (e Emitter) On() bool { return e.tr != nil }

// Emit stamps the event with the component path and delivers it.
func (e Emitter) Emit(ev Event) {
	if e.tr == nil {
		return
	}
	ev.Comp = e.comp
	e.tr.Event(ev)
}

// Span emits a [begin, end] span event.
func (e Emitter) Span(k EventKind, name string, begin, end int64) {
	if e.tr == nil {
		return
	}
	e.tr.Event(Event{Comp: e.comp, Kind: k, Name: name, Begin: begin, End: end})
}

// SpanAddr emits a span event carrying a memory address.
func (e Emitter) SpanAddr(k EventKind, name string, begin, end int64, addr uint64) {
	if e.tr == nil {
		return
	}
	e.tr.Event(Event{Comp: e.comp, Kind: k, Name: name, Begin: begin, End: end, Addr: addr})
}

// Instant emits a zero-duration event at cycle at.
func (e Emitter) Instant(k EventKind, name string, at int64) {
	if e.tr == nil {
		return
	}
	e.tr.Event(Event{Comp: e.comp, Kind: k, Name: name, Begin: at, End: at})
}

// Collect is a Tracer that accumulates events in memory, in emission order —
// the building block for evesim -trace and the trace tests. A Collect is a
// per-run object like any other Tracer.
type Collect struct {
	Events []Event
}

// Event implements Tracer.
func (c *Collect) Event(ev Event) { c.Events = append(c.Events, ev) }
