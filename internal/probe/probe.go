// Package probe is the simulator's observability layer: a hierarchical
// stats registry and a cycle-stamped event tracer threaded through every
// timed component (scalar core, each cache level, DRAM, the vector
// engines).
//
// Both halves obey the sim.Run purity contract: a Registry and a Tracer are
// per-run objects built by the caller and injected at construction time —
// never package-level state (the probepurity analyzer in internal/lint
// enforces this). A nil Tracer is the fast path: components hold a zero
// Emitter and every emission site is a single predictable branch, so a
// probe-disabled run is indistinguishable from a build without the layer
// (bench_test.go's BenchmarkSimRun* pair guards the claim).
//
// # Stats registry
//
// Components implement Source and are registered under a dotted component
// path ("core", "l2", "eve", ...). Snapshot pulls every source's counters
// once — there is no per-cycle bookkeeping — and returns a Stats tree
// flattened to sorted dotted names, gem5-dump style:
//
//	core.insts            51234
//	l2.mshr.stall_cycles   8812
//	eve.vmu.lines           130
//
// Snapshotting after the run keeps the hot loop untouched and makes the
// report deterministic: entries are sorted, duplicate paths panic.
package probe

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// StatKind discriminates the value a Stat carries.
type StatKind uint8

// Stat kinds.
const (
	KindCounter StatKind = iota // monotonic integer counter
	KindFloat                   // derived floating-point value
	KindDist                    // summary distribution
)

// DistValue is a summary distribution: count, sum and extrema of the
// observed values. Its zero value is an empty distribution; components
// embed one per tracked quantity and call Observe on the hot path (four
// integer operations, no allocation).
type DistValue struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// Observe folds one sample into the distribution.
func (d *DistValue) Observe(v int64) {
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if d.Count == 0 || v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
}

// Mean reports the distribution's mean (0 when empty).
func (d DistValue) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// Stat is one named entry of a snapshot. Exactly one of Int, Float or Dist
// is meaningful, per Kind.
type Stat struct {
	Name  string
	Kind  StatKind
	Int   int64
	Float float64
	Dist  DistValue
}

// Stats is a registry snapshot: entries sorted by dotted name.
type Stats []Stat

// Get returns the entry with the given name.
func (s Stats) Get(name string) (Stat, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Stat{}, false
}

// Filter returns the sub-snapshot of entries whose dotted name starts with
// prefix — one component subtree ("l2."), one stat family ("l2.mshr."),
// or a single entry when the prefix is a full name. Entries are sorted, so
// the matching range is contiguous and the result shares the snapshot's
// backing array: filtering allocates nothing and the result supports every
// Stats query (Get, Int, Float, Flatten, WriteText, further Filters).
func (s Stats) Filter(prefix string) Stats {
	lo := sort.Search(len(s), func(i int) bool { return s[i].Name >= prefix })
	hi := lo
	for hi < len(s) && strings.HasPrefix(s[hi].Name, prefix) {
		hi++
	}
	return s[lo:hi]
}

// Int returns a counter's value by name.
func (s Stats) Int(name string) (int64, bool) {
	st, ok := s.Get(name)
	if !ok || st.Kind != KindCounter {
		return 0, false
	}
	return st.Int, true
}

// Float returns a float entry's value by name.
func (s Stats) Float(name string) (float64, bool) {
	st, ok := s.Get(name)
	if !ok || st.Kind != KindFloat {
		return 0, false
	}
	return st.Float, true
}

// Flatten renders the snapshot as a flat name→value map; distributions
// expand to .count/.sum/.min/.max/.mean sub-entries. Counters below 2^53
// convert exactly.
func (s Stats) Flatten() map[string]float64 {
	out := make(map[string]float64, len(s))
	for _, st := range s {
		switch st.Kind {
		case KindCounter:
			out[st.Name] = float64(st.Int)
		case KindFloat:
			out[st.Name] = st.Float
		case KindDist:
			out[st.Name+".count"] = float64(st.Dist.Count)
			out[st.Name+".sum"] = float64(st.Dist.Sum)
			out[st.Name+".min"] = float64(st.Dist.Min)
			out[st.Name+".max"] = float64(st.Dist.Max)
			out[st.Name+".mean"] = st.Dist.Mean()
		}
	}
	return out
}

// WriteText dumps the snapshot as a deterministic, aligned, gem5-style text
// report: one sorted line per scalar, distributions on one summary line.
func (s Stats) WriteText(w io.Writer) error {
	width := 0
	for _, st := range s {
		if len(st.Name) > width {
			width = len(st.Name)
		}
	}
	for _, st := range s {
		var err error
		switch st.Kind {
		case KindCounter:
			_, err = fmt.Fprintf(w, "%-*s  %d\n", width, st.Name, st.Int)
		case KindFloat:
			_, err = fmt.Fprintf(w, "%-*s  %s\n", width, st.Name, FormatFloat(st.Float))
		case KindDist:
			_, err = fmt.Fprintf(w, "%-*s  mean %s (count %d, min %d, max %d, sum %d)\n",
				width, st.Name, FormatFloat(st.Dist.Mean()),
				st.Dist.Count, st.Dist.Min, st.Dist.Max, st.Dist.Sum)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// FormatFloat renders a float for the text report: integral values print
// without a fraction, everything else with six significant decimals.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6f", v)
}

// Source is a component that publishes its counters into a Scope at
// snapshot time. Implementations read their own plain fields; they must not
// mutate simulation state.
type Source interface {
	ProbeStats(s *Scope)
}

// Scope prefixes stat names with a dotted component path and appends the
// published entries to the snapshot under construction.
type Scope struct {
	prefix string
	out    *[]Stat
}

// Child returns a sub-scope one path segment deeper.
func (s *Scope) Child(name string) *Scope {
	return &Scope{prefix: s.prefix + name + ".", out: s.out}
}

// Counter publishes an integer counter.
func (s *Scope) Counter(name string, v int64) {
	*s.out = append(*s.out, Stat{Name: s.prefix + name, Kind: KindCounter, Int: v})
}

// CounterU publishes a uint64 counter.
func (s *Scope) CounterU(name string, v uint64) {
	s.Counter(name, int64(v))
}

// Float publishes a derived floating-point value.
func (s *Scope) Float(name string, v float64) {
	*s.out = append(*s.out, Stat{Name: s.prefix + name, Kind: KindFloat, Float: v})
}

// Dist publishes a summary distribution.
func (s *Scope) Dist(name string, d DistValue) {
	*s.out = append(*s.out, Stat{Name: s.prefix + name, Kind: KindDist, Dist: d})
}

// Registry is the hierarchical stats registry for one run. Components
// register under dotted paths at construction; Snapshot pulls their
// counters. The registry holds no counters itself, so registration and the
// simulated hot path cost nothing.
type Registry struct {
	names []string
	srcs  []Source
}

// NewRegistry returns an empty per-run registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a stats source under the given component path.
func (r *Registry) Register(path string, src Source) {
	r.names = append(r.names, path)
	r.srcs = append(r.srcs, src)
}

// Snapshot pulls every registered source and returns the sorted snapshot.
// Duplicate stat paths are a wiring bug and panic.
func (r *Registry) Snapshot() Stats {
	var out []Stat
	for i, src := range r.srcs {
		scope := &Scope{prefix: r.names[i] + ".", out: &out}
		src.ProbeStats(scope)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i := 1; i < len(out); i++ {
		if out[i].Name == out[i-1].Name {
			panic(fmt.Sprintf("probe: duplicate stat path %q", out[i].Name))
		}
	}
	return out
}

// Summary renders the snapshot via WriteText into a string.
func (s Stats) Summary() string {
	var b strings.Builder
	_ = s.WriteText(&b) //evelint:allow errdrop -- strings.Builder writes cannot fail
	return b.String()
}
