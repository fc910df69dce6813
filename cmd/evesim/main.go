// Command evesim runs one benchmark kernel on one simulated system and
// prints the cycle count, instruction characterization and (for EVE) the
// execution-time breakdown. With -trace it attaches the probe tracer and
// renders the event stream: the per-instruction engine timeline (text or
// CSV), or a Perfetto-loadable Chrome trace-event JSON with one track per
// component (core, cache levels, DRAM, eve.vsu/vmu/dtu).
//
//	evesim -system=O3+EVE-8 -kernel=pathfinder
//	evesim -system=O3+DV -kernel=sw -baseline=IO
//	evesim -system=O3+EVE-8 -kernel=vvadd -stats=text -stats-filter=l2.mshr.,eve.reconfig.
//	evesim -system=O3+EVE-8 -kernel=vvadd -intervals=2000
//	evesim -system=O3+EVE-8 -kernel=pathfinder -trace=text | head -40
//	evesim -system=O3+EVE-1 -kernel=mmult -trace=csv > trace.csv
//	evesim -system=O3+EVE-8 -kernel=vvadd -elems=256 -trace=perfetto -intervals=500 > trace.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analytic"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evesim:", err)
		os.Exit(1)
	}
}

// run is the command body, parameterized for tests. Output goes through a
// bufio.Writer so per-line write errors latch and surface once at Flush.
// The named return lets the deferred profiler flush report its error.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("evesim", flag.ContinueOnError)
	sysName := fs.String("system", "O3+EVE-8", "system to simulate (IO, O3, O3+IV, O3+DV, O3+EVE-{1,2,4,8,16,32})")
	kernel := fs.String("kernel", "vvadd", "benchmark kernel (vvadd, mmult, k-means, pathfinder, jacobi-2d, backprop, sw)")
	elems := fs.Int("elems", 0, "vvadd element count override (0 = standard input)")
	baseline := fs.String("baseline", "IO", "baseline system for the speedup report (empty to skip)")
	statsFmt := fs.String("stats", "", "dump the per-component stats registry: text or json")
	statsFilter := fs.String("stats-filter", "", "restrict the -stats dump to a comma-separated list of dotted-path subtrees (e.g. l2.mshr.,eve.reconfig.)")
	intervals := fs.Int64("intervals", 0, "sample the stats registry every N simulated cycles and append the interval time series as JSON, or add it as counter tracks to -trace=perfetto (0: off)")
	traceFmt := fs.String("trace", "", "attach the probe tracer: text prints the per-instruction timeline before the report; csv or perfetto write only that document, with no baseline run")
	prof := telemetry.NewProfiler(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	if *statsFmt != "" && *statsFmt != "text" && *statsFmt != "json" {
		return fmt.Errorf("unknown -stats format %q (want text or json)", *statsFmt)
	}
	if *statsFilter != "" && *statsFmt == "" {
		return fmt.Errorf("-stats-filter requires -stats=text or -stats=json")
	}
	if *intervals < 0 {
		return fmt.Errorf("-intervals must be non-negative, got %d", *intervals)
	}
	if *elems < 0 {
		return fmt.Errorf("-elems must be non-negative, got %d", *elems)
	}
	doc := *traceFmt == "csv" || *traceFmt == "perfetto"
	if *traceFmt != "" && *traceFmt != "text" && !doc {
		return fmt.Errorf("unknown -trace format %q (want text, csv or perfetto)", *traceFmt)
	}
	if doc && (*statsFmt != "" || *traceFmt == "csv" && *intervals > 0) {
		return fmt.Errorf("-trace=%s writes only the trace document; -stats (and -intervals with csv) do not apply", *traceFmt)
	}

	cfg, err := sim.SystemByName(*sysName)
	if err != nil {
		return err
	}
	// Sampling observes without perturbing, so only the reported target
	// needs it; the baseline simulates the plain system.
	cfg.Interval = *intervals
	k, err := resolveKernel(*kernel, *elems)
	if err != nil {
		return err
	}

	// The tracer stays a nil interface without -trace: the untraced path.
	var col *probe.Collect
	var tr probe.Tracer
	if *traceFmt != "" {
		col = &probe.Collect{}
		tr = col
	}
	// Simulate the target and the baseline as one parallel sweep: the two
	// cells are independent, so on a multicore host the comparison costs
	// one simulation's wall time instead of two.
	cells := []sweep.Cell{{Kernel: k.Name, System: cfg.Name(),
		Run: func() sim.Result { return sim.RunTraced(cfg, k, tr) }}}
	compare := !doc && *baseline != "" && !strings.EqualFold(*baseline, *sysName)
	if compare {
		bCfg, err := sim.SystemByName(*baseline)
		if err != nil {
			return err
		}
		cells = append(cells, sweep.Cell{Kernel: k.Name, System: bCfg.Name(),
			Run: func() sim.Result { return sim.Run(bCfg, k) }})
	}
	results, err := sweep.ForEach(cells, sweep.Options{Workers: len(cells), AbortOnError: true})
	if err != nil {
		return err
	}
	res := results[0]
	w := bufio.NewWriter(stdout)
	switch *traceFmt {
	case "perfetto":
		// With -intervals the trace grows counter tracks: windowed miss
		// rates, Fig 7 shares and gauges as curves beside the event tracks.
		if err := probe.WritePerfettoSeries(w, res.System+" "+res.Kernel, col.Events, res.Intervals); err != nil {
			return err
		}
		return w.Flush()
	case "csv":
		writeTimeline(w, col.Events, true)
		return w.Flush()
	case "text":
		writeTimeline(w, col.Events, false)
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "kernel        %s (%s)\n", k.Name, k.Input)
	fmt.Fprintf(w, "system        %s (area %.2fx of O3)\n", res.System, analytic.SystemAreaFactor(res.System))
	fmt.Fprintf(w, "cycles        %d\n", res.Cycles)
	fmt.Fprintf(w, "dyn. instrs   %d (%.0f%% vector)\n", res.Mix.DynamicInstrs(), 100*res.Mix.VectorPct())
	fmt.Fprintf(w, "total ops     %d\n", res.Mix.TotalOps())
	if bd := metrics.Breakdown(res.Stats); bd != nil {
		fmt.Fprintf(w, "spawn cost    %d cycles\n", metrics.SpawnCost(res.Stats))
		fmt.Fprintf(w, "vmu stalls    %.1f%% of time (Fig 8 metric)\n", 100*metrics.VMUStall(res.Stats))
		fmt.Fprintln(w, "breakdown (Fig 7 categories):")
		var cats []string
		for c, v := range bd {
			if v != 0 {
				cats = append(cats, c)
			}
		}
		// Largest first; equal counts tie-break by category name.
		sort.Slice(cats, func(i, j int) bool {
			a, b := cats[i], cats[j]
			if bd[a] != bd[b] {
				return bd[a] > bd[b]
			}
			return a < b
		})
		for _, c := range cats {
			fmt.Fprintf(w, "  %-14s %12d  (%.1f%%)\n", c, bd[c], 100*float64(bd[c])/float64(metrics.Total(bd)))
		}
	}
	if compare {
		bRes := results[1]
		fmt.Fprintf(w, "speedup       %.2fx over %s (%d cycles)\n",
			float64(bRes.Cycles)/float64(res.Cycles), bRes.System, bRes.Cycles)
	}
	if *statsFmt != "" {
		snap := res.Stats
		if *statsFilter != "" {
			snap = filterStats(snap, *statsFilter)
			if len(snap) == 0 {
				return fmt.Errorf("no stats match -stats-filter=%q (try -stats=text without a filter to list paths)", *statsFilter)
			}
		}
		if err := dumpStats(w, *statsFmt, snap.Flatten()); err != nil {
			return err
		}
	}
	if res.Intervals != nil {
		fmt.Fprintf(w, "\nintervals (window %d cycles, %d samples):\n", res.Intervals.Window, len(res.Intervals.Samples))
		if err := res.Intervals.WriteJSON(w); err != nil {
			return err
		}
	}
	return w.Flush()
}

// writeTimeline renders the vector unit's per-instruction commit stream
// (its KInstr events) as a fixed-width table or as CSV.
func writeTimeline(w *bufio.Writer, events []probe.Event, csv bool) {
	format := "%5d  %-34s vl=%-5d commit=%-8d vcu=%-8d vsu=%-8d block=%d\n"
	if csv {
		format = "%d,%q,%d,%d,%d,%d,%d\n"
		fmt.Fprintln(w, "seq,asm,vl,arrival,vcu,vsu_clock,core_block")
	}
	for i := range events {
		ev := &events[i]
		if ev.Kind == probe.KInstr && (ev.Comp == "eve.vsu" || ev.Comp == "dv") {
			fmt.Fprintf(w, format, ev.Seq, ev.Name, ev.VL, ev.Begin, ev.Aux, ev.End, ev.Aux2)
		}
	}
}

// filterStats unions the sub-snapshots of a comma-separated prefix list.
// Overlapping prefixes (eve.,eve.reconfig.) would duplicate entries, so the
// merge re-sorts and dedups; the result preserves Stats' sorted invariant.
func filterStats(s probe.Stats, spec string) probe.Stats {
	var out probe.Stats
	for _, prefix := range strings.Split(spec, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		out = append(out, s.Filter(prefix)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	dedup := out[:0]
	for i, st := range out {
		if i == 0 || st.Name != out[i-1].Name {
			dedup = append(dedup, st)
		}
	}
	return dedup
}

// dumpStats renders the flattened registry snapshot deterministically: the
// sorted gem5-style text report, or a JSON object (json.Marshal sorts map
// keys, so both forms are byte-stable across runs).
func dumpStats(w io.Writer, format string, stats map[string]float64) error {
	if format == "json" {
		out, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(out))
		return err
	}
	names := make([]string, 0, len(stats))
	width := 0
	for name := range stats {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	if _, err := fmt.Fprintln(w, "\nstats (per-component registry):"); err != nil {
		return err
	}
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", width, name, probe.FormatFloat(stats[name])); err != nil {
			return err
		}
	}
	return nil
}

// resolveKernel finds a suite kernel; a positive elems reruns vvadd at that
// element count.
func resolveKernel(name string, elems int) (*workloads.Kernel, error) {
	if elems > 0 {
		if name != "vvadd" {
			return nil, fmt.Errorf("-elems only applies to -kernel=vvadd (got %q)", name)
		}
		return workloads.NewVVAdd(elems), nil
	}
	return workloads.ByName(workloads.Default(), name)
}
