// Command perfbench is the repository's performance benchmark. It runs one
// workload through the program's production entry points — campaign.Run
// (explore) or faults.Run (faults) — checks every simulated output against
// pinned digests, and prints its metrics as one JSON object on the last line
// of standard output.
//
//	perfbench --workload explore --seed 1 --seconds 35 --trace 0 # end-to-end metrics
//	perfbench --workload faults --seed 3 --seconds 35 --trace 1  # per-layer metrics
//	perfbench --pin digests.json                                # re-pin the digests
//
// An untraced run (--trace 0) measures whole passes of the workload and
// reports the end-to-end metrics. A traced run (--trace 1) makes a pass
// with spans around each sweep and cell between two plain passes, re-runs the
// pass's cells serially with a span around every public call into the mem,
// isa, sim and faults layers and replays the explore journal, and reports
// the per-layer metrics derived from those spans. NOTES.md explains the
// workloads and metrics; run.py builds and runs the command.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times, at least, a run sets up in a fresh process
// to time setup_s; the set-ups are spread over the run, an equal batch
// before each pass, and the median is reported.
const setupRuns = 30

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

var logw io.Writer = os.Stderr

func warn(format string, args ...any) {
	fmt.Fprintf(logw, "perfbench: "+format+"\n", args...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: explore or faults")
	seed := fs.Int64("seed", 1, "workload seed (explore's campaign seed, faults' site-sampling seed)")
	seconds := fs.Int("seconds", 35, "measured time budget; a run measures round(seconds/nominal pass time) whole passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run giving the per-layer metrics")
	dir := fs.String("dir", defaultDir(), "scratch directory for journals and the span file")
	setupProbe := fs.Bool("setup-probe", false, "set up, print \"ready\" and exit (how a run times its set-up)")
	pinPath := fs.String("pin", "", "run every workload at every pinned seed, write the digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		warn("%v", err)
		return 2
	}
	if *pinPath != "" {
		if err := pin(*pinPath, *dir); err != nil {
			warn("pin: %v", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		warn("--trace must be 0 or 1")
		return 2
	}
	pins, err := loadDigests()
	if err != nil {
		warn("%v", err)
		return 2
	}
	workers := min(2, runtime.NumCPU())
	if *name == "faults" {
		workers = 1
	}
	in := inputSeed(*seed)
	w, err := newWorkload(*name, in, workers, *dir, pins)
	if err != nil {
		warn("%v", err)
		return 2
	}

	var res result
	if *setupProbe {
		if err := w.warmup(); err != nil {
			warn("warm-up: %v", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	warn("%s: seed %d (input seed %d), %d workers", w.name, *seed, in, w.workers)
	if *trace == 1 {
		res, err = tracedRun(w, *dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
	} else {
		res, err = timedRun(w, *seconds, args)
	}
	if err != nil {
		warn("%v", err)
		return 1
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		warn("%v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultDir is the scratch directory inside the checkout's build
// directory.
func defaultDir() string {
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	return filepath.Join(build, "perfbench")
}

// endToEnd lists the end-to-end metrics in report order, with their units.
var endToEnd = [][2]string{
	{"cells_per_s", "1/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_tail", "ms"},
	{"alloc_mb_per_cell", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics in report order, with their units.
var perLayer = [][2]string{
	{"mem.flat_new_ms_p50", "ms"},
	{"mem.flat_share", "ratio"},
	{"isa.functional_share", "ratio"},
	{"isa.ns_per_instr", "ns"},
	{"sim.run_ms_p50", "ms"},
	{"sim.ns_per_instr", "ns"},
	{"sim.model_share", "ratio"},
	{"sweep.utilization", "ratio"},
	{"campaign.journal_append_us_p50", "us"},
	{"campaign.journal_append_us_tail", "us"},
	{"faults.datapath_share", "ratio"},
	{"faults.exec_us_p50", "us"},
	{"faults.exec_calls", "count"},
	{"core.insts", "count"},
	{"l1d.accesses", "count"},
	{"l1d.misses", "count"},
	{"l2.misses", "count"},
	{"llc.misses", "count"},
	{"l2.mshr.stall_cycles", "count"},
	{"dram.reads", "count"},
	{"eve.instrs", "count"},
	{"faults.masked", "count"},
	{"faults.detected", "count"},
	{"faults.sdc", "count"},
	{"faults.crash", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// report turns values into the metric map, in the order and with the units
// of list, and prints them to the log.
func report(list [][2]string, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := values[m[0]]
		if !ok {
			panic("perfbench: no value for metric " + m[0])
		}
		out[m[0]] = metric{Value: v, Unit: m[1]}
		warn("  %-32s %14.6g %s", m[0], v, m[1])
	}
	return out
}

// timedRun is an untraced run: round(seconds/nominal) whole passes, each
// one production call after a batch of set-ups timed in fresh processes.
// Timings are medians over the passes: a cell's time is the median of its
// wall times, and cells_per_s is the median pass's rate. The host's speed
// swings for seconds to minutes at a time (NOTES.md), and a median over
// passes follows it less than the fastest pass does. The peak RSS is the
// median of the per-pass peaks.
func timedRun(w *workload, seconds int, args []string) (result, error) {
	if err := w.warmup(); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	passes := max(1, int(math.Round(float64(seconds)*float64(time.Second)/float64(w.nominal))))
	batch := (setupRuns + passes - 1) / passes
	var (
		res           result
		rss           float64
		rates, peaks  []float64
		setups        []float64
		walls         = map[int][]float64{} // ms, per cell
		cells         int
		allocated     uint64
		before, after runtime.MemStats
	)
	for i := 0; i < passes; i++ {
		s, err := timeSetup(args, batch)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s...)
		obs := newWallClock()
		resetPeakRSS()
		runtime.ReadMemStats(&before)
		start := time.Now()
		check := w.run(obs)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if rss, err = peakRSS(); err != nil {
			return result{}, err
		}
		p := check()
		res.Attempted += p.attempted
		res.Failed += p.failed
		cells += len(obs.walls)
		allocated += after.TotalAlloc - before.TotalAlloc
		for id, d := range obs.walls {
			walls[id] = append(walls[id], float64(d)/float64(time.Millisecond))
		}
		rates = append(rates, float64(len(obs.walls))/wall.Seconds())
		peaks = append(peaks, rss)
		warn("pass %d/%d: %d cells in %.3fs, %d failed", i+1, passes, len(obs.walls), wall.Seconds(), p.failed)
	}
	cellMs := make([]float64, 0, len(walls))
	for _, ms := range walls {
		cellMs = append(cellMs, median(ms))
	}
	t := tailOf(cellMs)
	warn("%d distinct cells, each timed as the median of %d passes; cell_ms_tail is %s; setup_s is the median of %d set-ups",
		len(walls), passes, t, len(setups))
	res.Metrics = report(endToEnd, map[string]float64{
		"cells_per_s":       median(rates),
		"cell_ms_p50":       median(cellMs),
		"cell_ms_tail":      t.Value,
		"alloc_mb_per_cell": float64(allocated) / 1e6 / float64(cells),
		"peak_rss_mb":       median(peaks),
		"setup_s":           median(setups),
	})
	return res, nil
}

// timeSetup starts the command n times in set-up-only mode and times each
// from process start to the "ready" line it prints when it would start the
// first timed cell.
func timeSetup(args []string, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, append(slices.Clone(args), "--setup-probe")...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(start)
		_, _ = io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up run: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up run printed %q (%v)", line, rerr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// resetPeakRSS restarts the kernel's peak-RSS count at the current RSS, so
// peakRSS then reads the peak of one pass. Where the reset is not allowed
// peakRSS reads the process's peak so far.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		warn("peak RSS not reset: %v", err)
	}
}

// peakRSS reads the process's peak resident set size in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// tracedRun makes a traced pass between two plain ones, re-runs the traced
// pass's cells under the layer probes, and derives the per-layer metrics.
// The first plain pass also warms the process up (its heap grows to the
// workload's size), so the tracing overhead is the traced pass's wall time
// over the second plain pass's.
// The spans are written to dir/spanFile at the end.
func tracedRun(w *workload, dir, spanFile string) (result, error) {
	var res result
	if err := w.warmup(); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	plainPass := func() (pass, time.Duration) {
		start := time.Now()
		check := w.run(nil)
		wall := time.Since(start)
		return check(), wall
	}
	before, wallBefore := plainPass()

	t := newTracer()
	root := t.begin("pass", -1, -1)
	obs := newSpanObserver(t, root)
	start := time.Now()
	check := w.run(obs)
	tracedWall := time.Since(start)
	t.end(root)
	traced := check()

	after, plainWall := plainPass()
	for _, p := range []pass{before, traced, after} {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	if !samePass(before, traced) || !samePass(before, after) {
		warn("the traced pass's outputs differ from the plain passes'")
		res.Failed += traced.attempted
	}

	pt := probeCells(t, traced.cells)
	res.Attempted += len(traced.cells)
	res.Failed += pt.failed
	if len(traced.records) > 0 {
		if err := replayJournal(t, dir, traced.records); err != nil {
			return res, err
		}
	}
	spans := t.snapshot()
	values := layerMetrics(spans, selfTimes(spans), w.workers, obs, pt)
	values["trace.overhead_ratio"] = tracedWall.Seconds() / plainWall.Seconds()
	values["faults.masked"] = float64(traced.summary.Masked)
	values["faults.detected"] = float64(traced.summary.Detected)
	values["faults.sdc"] = float64(traced.summary.SDC)
	values["faults.crash"] = float64(traced.summary.Crash)
	warn("plain passes %.3fs and %.3fs, traced pass %.3fs between them; %d spans",
		wallBefore.Seconds(), plainWall.Seconds(), tracedWall.Seconds(), len(spans))
	res.Metrics = report(perLayer, values)
	path := filepath.Join(dir, spanFile)
	if err := t.write(path); err != nil {
		return res, err
	}
	warn("spans written to %s", path)
	return res, nil
}

// samePass reports whether two passes produced the same simulated outputs.
func samePass(a, b pass) bool {
	return a.digest == b.digest && slices.EqualFunc(a.cells, b.cells, func(x, y cell) bool {
		return x.label == y.label && x.cycles == y.cycles && x.checksum == y.checksum
	})
}

// layerMetrics derives the per-layer metrics from the traced pass's spans
// and the layer probes'. A layer the workload does not exercise reads 0.
func layerMetrics(spans []span, self []int64, workers int, obs *spanObserver, pt probeTotals) map[string]float64 {
	var (
		flat, funcSelf, simRun, simSelf, dp, sweeps float64 // ns
		flatMs, simMs, execUs, appendUs             []float64
	)
	for i, s := range spans {
		d := float64(s.dur())
		switch s.Name {
		case "mem.flat_new":
			if spans[s.Parent].Name == "cell" {
				flat += d
				flatMs = append(flatMs, d/1e6)
			}
		case "isa.functional":
			funcSelf += float64(self[i])
		case "sim.run":
			simRun += d
			simSelf += float64(self[i])
			simMs = append(simMs, d/1e6)
		case "faults.exec":
			dp += d
			execUs = append(execUs, d/1e3)
		case "faults.read":
			dp += d
		case "campaign.append":
			appendUs = append(appendUs, d/1e3)
		case "sweep":
			sweeps += d
		}
	}
	orZero := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	appendTail := tailOf(appendUs)
	if len(appendUs) > 0 {
		warn("campaign.journal_append_us_tail is %s", appendTail)
	}
	v := map[string]float64{
		"mem.flat_new_ms_p50":             orZero(median(flatMs)),
		"mem.flat_share":                  orZero(flat / simRun),
		"isa.functional_share":            orZero(funcSelf / simRun),
		"isa.ns_per_instr":                orZero(funcSelf / float64(pt.funcInstrs)),
		"sim.run_ms_p50":                  orZero(median(simMs)),
		"sim.ns_per_instr":                orZero(simRun / float64(pt.simInstrs)),
		"sim.model_share":                 orZero((simSelf - flat - funcSelf) / simRun),
		"sweep.utilization":               orZero(float64(obs.busy) / (float64(workers) * sweeps)),
		"campaign.journal_append_us_p50":  orZero(median(appendUs)),
		"campaign.journal_append_us_tail": appendTail.Value,
		"faults.datapath_share":           orZero(dp / simRun),
		"faults.exec_us_p50":              orZero(median(execUs)),
		"faults.exec_calls":               float64(len(execUs)),
	}
	for _, name := range countedStats {
		v[name] = float64(obs.counts[name])
	}
	return v
}
