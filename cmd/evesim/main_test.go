package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/probe"
)

// TestStatsFilterCLISmoke drives the command body end to end: a real
// simulation, the registry dump restricted to one subtree via -stats-filter.
func TestStatsFilterCLISmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-system=IO", "-kernel=vvadd", "-baseline=", "-stats=text", "-stats-filter=l2."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "cycles") {
		t.Errorf("summary header missing from output:\n%s", text)
	}
	if !strings.Contains(text, "l2.accesses") {
		t.Errorf("filtered dump lacks l2.accesses:\n%s", text)
	}
	for _, leaked := range []string{"core.insts", "l1d.accesses", "llc.accesses", "dram.accesses"} {
		if strings.Contains(text, leaked) {
			t.Errorf("-stats-filter=l2. leaked %s:\n%s", leaked, text)
		}
	}
}

// TestStatsFilterJSONSubtree checks the JSON dump contains exactly the
// requested subtree.
func TestStatsFilterJSONSubtree(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-system=IO", "-kernel=vvadd", "-baseline=", "-stats=json", "-stats-filter=l2.mshr."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	start := strings.IndexByte(text, '{')
	if start < 0 {
		t.Fatalf("no JSON object in output:\n%s", text)
	}
	var stats map[string]float64
	if err := json.Unmarshal([]byte(text[start:]), &stats); err != nil {
		t.Fatalf("stats JSON does not parse: %v\n%s", err, text)
	}
	if len(stats) == 0 {
		t.Fatal("filtered JSON dump is empty")
	}
	for name := range stats {
		if !strings.HasPrefix(name, "l2.mshr.") {
			t.Errorf("key %q escaped the l2.mshr. filter", name)
		}
	}
}

func TestStatsFilterFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-stats-filter=l2."}, &out); err == nil {
		t.Error("-stats-filter without -stats was accepted")
	}
	err := run([]string{"-system=IO", "-kernel=vvadd", "-baseline=", "-stats=text", "-stats-filter=nosuch."}, &out)
	if err == nil || !strings.Contains(err.Error(), "no stats match") {
		t.Errorf("absent filter prefix error = %v, want a 'no stats match' error", err)
	}
}

// TestStatsFilterCommaList checks that -stats-filter unions several subtrees,
// dedups an overlapping pair, and tolerates whitespace around the commas.
func TestStatsFilterCommaList(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-system=IO", "-kernel=vvadd", "-baseline=", "-stats=json",
		"-stats-filter=l2.mshr., core., core.insts"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	start := strings.IndexByte(text, '{')
	if start < 0 {
		t.Fatalf("no JSON object in output:\n%s", text)
	}
	var stats map[string]float64
	if err := json.Unmarshal([]byte(text[start:]), &stats); err != nil {
		t.Fatalf("stats JSON does not parse: %v\n%s", err, text)
	}
	var sawMSHR, sawCore bool
	for name := range stats {
		switch {
		case strings.HasPrefix(name, "l2.mshr."):
			sawMSHR = true
		case strings.HasPrefix(name, "core."):
			sawCore = true
		default:
			t.Errorf("key %q escaped the two requested subtrees", name)
		}
	}
	if !sawMSHR || !sawCore {
		t.Errorf("union missing a subtree (mshr %v, core %v):\n%s", sawMSHR, sawCore, text)
	}
	// The overlapping core./core.insts pair must not duplicate core.insts:
	// a JSON object can't express the duplicate, so check the merge directly.
	merged := filterStats(probe.Stats{
		{Name: "core.insts", Kind: probe.KindCounter, Int: 1},
		{Name: "core.stalls", Kind: probe.KindCounter, Int: 2},
	}, "core., core.insts,, core.insts")
	if len(merged) != 2 {
		t.Errorf("overlapping prefixes merged to %d entries, want 2: %v", len(merged), merged)
	}
}

// intervalSeries is the -intervals JSON dump as the tests read it.
type intervalSeries struct {
	Window  int64 `json:"window"`
	Samples []struct {
		Start  int64              `json:"start"`
		End    int64              `json:"end"`
		Deltas map[string]float64 `json:"deltas"`
	} `json:"samples"`
	Reconfigs []struct {
		Event string `json:"event"`
		Ways  int    `json:"ways"`
		Owned int    `json:"owned"`
	} `json:"reconfigs"`
}

// parseIntervals finds the interval header for the given window in a report
// and decodes the JSON series that follows it.
func parseIntervals(t *testing.T, text string, window int64) intervalSeries {
	t.Helper()
	marker := fmt.Sprintf("intervals (window %d cycles", window)
	at := strings.Index(text, marker)
	if at < 0 {
		t.Fatalf("interval header missing from output:\n%s", text)
	}
	start := strings.IndexByte(text[at:], '{')
	if start < 0 {
		t.Fatalf("no JSON series after the interval header:\n%s", text)
	}
	var series intervalSeries
	if err := json.Unmarshal([]byte(text[at+start:]), &series); err != nil {
		t.Fatalf("interval series does not parse: %v\n%s", err, text)
	}
	if series.Window != window || len(series.Samples) == 0 {
		t.Fatalf("series window %d with %d samples, want %d with >=1", series.Window, len(series.Samples), window)
	}
	return series
}

// TestIntervalsFlagSmoke drives -intervals end to end: the dump must appear,
// parse, and show the EVE-8 borrow/return pair with correct way counts.
func TestIntervalsFlagSmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-system=O3+EVE-8", "-kernel=vvadd", "-baseline=", "-intervals=2000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	series := parseIntervals(t, out.String(), 2000)
	var borrow, ret bool
	for _, ev := range series.Reconfigs {
		switch ev.Event {
		case "borrow":
			borrow = ev.Ways == 4 && ev.Owned == 4
		case "return":
			ret = ev.Ways == 4 && ev.Owned == 0
		}
	}
	if !borrow || !ret {
		t.Errorf("timeline lacks the borrow/return pair with 4 ways (borrow %v, return %v):\n%s",
			borrow, ret, out.String())
	}
}

func TestIntervalsFlagValidation(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-intervals=-5"},
		{"-elems=-5"},
		{"-kernel=mmult", "-elems=64"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v was accepted", args)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden files with the current trace output")

// traceArgs is the golden configuration: a 256-element vvadd on EVE-8 keeps
// the full event stream to a few hundred events.
func traceArgs(extra ...string) []string {
	return append([]string{"-system=O3+EVE-8", "-kernel=vvadd", "-elems=256", "-trace=perfetto"}, extra...)
}

// TestPerfettoGolden pins the exact trace bytes for a tiny kernel. A timing
// model change that legitimately moves events is refreshed with
//
//	go test ./cmd/evesim -run TestPerfettoGolden -update
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(traceArgs(), &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "vvadd256.perfetto.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("perfetto trace diverges from %s (%d vs %d bytes).\n"+
			"If the timing-model change is intentional, refresh with -update.", golden, buf.Len(), len(want))
	}
}

// TestReportGolden pins the exact text report of an EVE run without a
// baseline: cycles, instruction mix, spawn cost, VMU stall fraction and the
// largest-first Fig 7 breakdown. Refresh with:
//
//	go test ./cmd/evesim -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-system=O3+EVE-8", "-kernel=vvadd", "-elems=4096", "-baseline="}, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "vvadd4096.report.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report diverges from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestPerfettoByteIdentical runs the same traced simulation twice and
// requires byte-identical output — the determinism the CI smoke job diffs.
func TestPerfettoByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(traceArgs(), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(traceArgs(), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical traced runs produced different bytes")
	}
}

// TestPerfettoParsesWithRequiredKeys validates the trace against the Chrome
// trace-event contract Perfetto relies on: top-level traceEvents, and ph/pid
// on every event (plus ts on non-metadata events).
func TestPerfettoParsesWithRequiredKeys(t *testing.T) {
	var buf bytes.Buffer
	if err := run(traceArgs(), &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	tracks := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok {
			t.Fatalf("event %d has no ph: %v", i, ev)
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event %d has no pid: %v", i, ev)
		}
		if ph == "M" {
			if ev["name"] == "thread_name" {
				args := ev["args"].(map[string]any)
				tracks[args["name"].(string)] = true
			}
			continue
		}
		if _, ok := ev["ts"]; !ok {
			t.Fatalf("event %d has no ts: %v", i, ev)
		}
	}
	// The EVE-8 run must produce at least the engine's three tracks plus the
	// core and a cache level.
	for _, want := range []string{"core", "eve.vsu", "eve.vmu", "eve.dtu", "llc"} {
		if !tracks[want] {
			t.Errorf("trace is missing the %q track (have %v)", want, tracks)
		}
	}
}

// TestCSVTimeline smoke-tests the per-instruction timeline: -trace=csv
// writes only the header and rows, no report, and -trace=text prints the
// table before the usual report.
func TestCSVTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := run(traceArgs("-trace=csv"), &buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines, want header + rows:\n%s", len(lines), buf.String())
	}
	if got := string(lines[0]); got != "seq,asm,vl,arrival,vcu,vsu_clock,core_block" {
		t.Errorf("CSV header = %q", got)
	}
	if bytes.Contains(buf.Bytes(), []byte("cycles")) {
		t.Errorf("-trace=csv leaked the report:\n%s", buf.String())
	}
	buf.Reset()
	if err := run(traceArgs("-trace=text"), &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if i, j := strings.Index(text, "vsetvli"), strings.Index(text, "kernel        vvadd"); i < 0 || j < i {
		t.Errorf("-trace=text must print the timeline, then the report:\n%s", text)
	}
}

// TestIntervalPerfettoCounterTracks checks the combined export:
// -trace=perfetto -intervals must add "C" counter events for the windowed
// curves while keeping the trace a valid Chrome trace-event document.
func TestIntervalPerfettoCounterTracks(t *testing.T) {
	var buf bytes.Buffer
	if err := run(traceArgs("-intervals=200"), &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counters := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		if ev["ph"] != "C" {
			continue
		}
		name, _ := ev["name"].(string)
		counters[name] = true
		for _, key := range []string{"ts", "pid", "args"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("counter event %d (%s) missing %q", i, name, key)
			}
		}
	}
	for _, want := range []string{"l2.miss_rate", "eve.ways_owned", "eve.breakdown", "l2.ways_active"} {
		if !counters[want] {
			t.Errorf("trace is missing the %q counter track (have %v)", want, counters)
		}
	}
}

// TestIntervalJSONDump checks the interval dump on the tiny traced
// configuration: two identical runs give identical bytes, the windows tile
// the run from cycle 0, and the 4-way borrow/return pair is recorded.
func TestIntervalJSONDump(t *testing.T) {
	args := []string{"-system=O3+EVE-8", "-kernel=vvadd", "-elems=256", "-baseline=", "-intervals=500"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical interval dumps produced different bytes")
	}
	series := parseIntervals(t, a.String(), 500)
	prevEnd := int64(0)
	for i, sm := range series.Samples {
		if sm.Start != prevEnd {
			t.Errorf("sample %d starts at %d, want %d (windows must tile)", i, sm.Start, prevEnd)
		}
		prevEnd = sm.End
	}
	var borrow, ret bool
	for _, ev := range series.Reconfigs {
		borrow = borrow || (ev.Event == "borrow" && ev.Ways == 4)
		ret = ret || (ev.Event == "return" && ev.Ways == 4)
	}
	if !borrow || !ret {
		t.Errorf("timeline lacks the 4-way borrow/return pair:\n%s", a.String())
	}
}

// TestIntervalFlagValidation covers the flag checks of the trace modes: a
// negative window is rejected with a trace too, as are an unknown -trace
// format and a -stats report alongside a trace-only document.
func TestIntervalFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		traceArgs("-intervals=-1"),
		{"-trace=bogus"},
		{"-trace=csv", "-stats=json"},
		{"-trace=csv", "-intervals=500"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("%v was accepted", args)
		}
	}
}
