package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePerfetto renders a traced run as Chrome trace-event JSON, the format
// ui.perfetto.dev (and chrome://tracing) loads directly. The whole run is
// one process; every component path becomes one named thread track, so the
// core, each cache level, DRAM and the engine sub-units (eve.vsu, eve.vmu,
// eve.dtu) line up as parallel timelines. Cycle stamps map 1:1 onto the
// format's microsecond field — read "1 µs" as "1 core cycle".
//
// Span events render as complete ("X") slices; instants and instruction
// commits render as thread-scoped instant ("i") marks, which keeps every
// track free of partially-overlapping slices Perfetto cannot nest.
//
// The output is deterministic: track ids come from the sorted component
// paths, events keep their emission order, and json.Marshal sorts the args
// maps — two identical runs produce byte-identical traces.
func WritePerfetto(w io.Writer, process string, events []Event) error {
	return WritePerfettoSeries(w, process, events, nil)
}

// WritePerfettoSeries renders the trace like WritePerfetto and, when an
// interval series is given, appends counter ("C") events so the window
// metrics draw as curves alongside the event tracks:
//
//   - a <comp>.miss_rate track per cache level, derived from each window's
//     misses/accesses deltas;
//   - one stacked track per cycle attribution (a <comp>.breakdown.*
//     family, such as EVE's Fig 7 categories) carrying every category's
//     window cycles, so the stall shares read directly off the plot;
//   - one track per gauge (ways owned, MSHR occupancy, queue depth, ...);
//   - extra points on the ways-owned track at every reconfiguration edge,
//     so borrows and returns show as steps at their exact cycle.
//
// Counter values come from the deterministic series, so the extended trace
// is byte-deterministic too.
func WritePerfettoSeries(w io.Writer, process string, events []Event, series *Series) error {
	const pid = 1
	comps := make([]string, 0, 8)
	seen := make(map[string]bool, 8)
	for _, ev := range events {
		if !seen[ev.Comp] {
			seen[ev.Comp] = true
			comps = append(comps, ev.Comp)
		}
	}
	sort.Strings(comps)
	tid := make(map[string]int, len(comps))
	for i, c := range comps {
		tid[c] = i + 1
	}

	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}

	type meta struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := emit(meta{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": process}}); err != nil {
		return err
	}
	for _, c := range comps {
		if err := emit(meta{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid[c],
			Args: map[string]any{"name": c}}); err != nil {
			return err
		}
	}

	type slice struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	for _, ev := range events {
		s := slice{
			Name: ev.Name,
			Cat:  ev.Kind.String(),
			Ts:   ev.Begin,
			Pid:  pid,
			Tid:  tid[ev.Comp],
			Args: eventArgs(ev),
		}
		// Instruction and dispatch events overlap freely in a pipelined
		// machine; everything else on a track is sequential. Overlapping
		// shapes become instants so Perfetto's slice nesting stays valid.
		if ev.Kind == KInstr || ev.Kind == KDispatch || ev.End <= ev.Begin {
			s.Ph, s.S = "i", "t"
			if ev.End > ev.Begin {
				if s.Args == nil {
					s.Args = map[string]any{}
				}
				s.Args["end"] = ev.End
			}
		} else {
			s.Ph = "X"
			s.Dur = ev.End - ev.Begin
		}
		if err := emit(s); err != nil {
			return err
		}
	}

	if series != nil {
		type counter struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		}
		point := func(name string, ts int64, args map[string]any) error {
			return emit(counter{Name: name, Cat: "interval", Ph: "C", Ts: ts, Pid: pid, Args: args})
		}
		for _, sm := range series.Samples {
			// Windowed miss-rate per cache level: every component with both
			// an accesses and a misses counter in the window deltas.
			for _, st := range sm.Deltas {
				if st.Kind != KindCounter || !strings.HasSuffix(st.Name, ".accesses") {
					continue
				}
				comp := componentOf(st.Name)
				misses, ok := sm.Deltas.Int(comp + ".misses")
				if !ok {
					continue
				}
				rate := 0.0
				if st.Int > 0 {
					rate = float64(misses) / float64(st.Int)
				}
				if err := point(comp+".miss_rate", sm.End, map[string]any{"miss_rate": rate}); err != nil {
					return err
				}
			}
			// Each cycle attribution (<comp>.breakdown.<category>) as one
			// stacked counter track. Deltas are sorted, so a family's
			// categories are contiguous.
			for i := 0; i < len(sm.Deltas); {
				comp, _, ok := strings.Cut(sm.Deltas[i].Name, ".breakdown.")
				if !ok {
					i++
					continue
				}
				track := comp + ".breakdown"
				fam := sm.Deltas[i:].Filter(track + ".")
				args := make(map[string]any, len(fam))
				for _, st := range fam {
					args[st.Name[len(track)+1:]] = st.Int
				}
				if err := point(track, sm.End, args); err != nil {
					return err
				}
				i += len(fam)
			}
			// Every gauge is its own track.
			for _, st := range sm.Gauges {
				var v any = st.Int
				if st.Kind == KindFloat {
					v = st.Float
				}
				if err := point(st.Name, sm.End, map[string]any{"value": v}); err != nil {
					return err
				}
			}
		}
		// Reconfiguration edges add points to the ways-owned track at their
		// exact cycles, so the borrow/return steps are sharp.
		for _, ev := range series.Reconfigs {
			err := point(ev.Comp+".ways_owned", ev.Cycle, map[string]any{"value": ev.Owned})
			if err != nil {
				return err
			}
		}
	}

	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// eventArgs packs an event's non-zero payload fields for the trace viewer.
func eventArgs(ev Event) map[string]any {
	var args map[string]any
	set := func(k string, v any) {
		if args == nil {
			args = map[string]any{}
		}
		args[k] = v
	}
	if ev.Seq != 0 {
		set("seq", ev.Seq)
	}
	if ev.Addr != 0 {
		set("addr", fmt.Sprintf("%#x", ev.Addr))
	}
	if ev.VL != 0 {
		set("vl", ev.VL)
	}
	if ev.Aux != 0 {
		set("aux", ev.Aux)
	}
	if ev.Aux2 != 0 {
		set("aux2", ev.Aux2)
	}
	return args
}
