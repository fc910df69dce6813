// Package simpath is the hotalloc fixture for the sim package's roots;
// linttest checks it under repro/internal/sim. Emit and play are hot; Run,
// the per-cell assembly, is not, and neither is a function only a panic
// argument calls.
package simpath

import "fmt"

type Event struct{ N int }

type System struct {
	name  string
	trace []int
}

type recorder struct {
	sys *System
	log []byte
}

// Emit is a hot root: the recorder's tee.
func (r *recorder) Emit(ev Event) {
	//evelint:allow hotalloc -- amortized: the log doubles, and a reused buffer already holds the stream
	r.log = append(r.log, byte(ev.N))
	r.log = append(r.log, 0) // want `hot path \(\*recorder\)\.Emit: append to r\.log can grow the backing array`
	r.sys.Emit(ev)
}

// Emit is a hot root: the system's coupling. Its panic message calls name,
// which allocates but is not hot.
func (s *System) Emit(ev Event) {
	if ev.N < 0 {
		panic(fmt.Sprintf("bad event on %s", s.label()))
	}
	s.trace = append(s.trace, ev.N) // want `hot path \(\*System\)\.Emit: append to s\.trace can grow the backing array`
}

// label is reached only through a panic argument.
func (s *System) label() string {
	return fmt.Sprint(s.name, len(s.trace))
}

// play is a hot root: the replay decode loop.
func play(s *System, log []byte) {
	for _, b := range log {
		s.Emit(decode(b))
	}
}

// decode is hot through play.
func decode(b byte) Event {
	buf := make([]int, 1) // want `hot path decode: make allocates on every call`
	return Event{N: int(b) + len(buf)}
}

// Run is named like a per-cycle root elsewhere, but in sim it assembles a
// cell: not hot.
func Run() *System {
	s := &System{trace: make([]int, 0, 8)}
	play(s, []byte{1, 2})
	return s
}
