// Package telemetry is the host-side observability layer: it watches the
// machine *running* the simulator, never the machine being simulated.
//
// Two pieces, both stdlib-only and both opt-in:
//
//   - Profiler: uniform -cpuprofile/-memprofile/-profile-dir flag wiring for
//     every CLI, with an idempotent Stop so signal-cancelled runs still
//     flush valid pprof files.
//   - Observer: the one host-side sweep.Observer. It classifies each cell
//     once (ok, failed or timeout), keeps one set of counts, and writes
//     whichever outputs are on: the -progress line per cell plus a sweep
//     summary, the -log-json structured run log (one JSON line per
//     lifecycle event: cell start/done, journal checkpoint, signal, sweep
//     done), and the state behind the -status server — /status (progress,
//     throughput, ETA, per-cell wall-time histogram), /metrics (Prometheus
//     text: host counters plus the probe-registry snapshot of the last
//     completed cell) and /debug/pprof/*.
//
// Flags wires both into the sweep-running CLIs (eve-figures, eve-faults,
// eve-explore) in one place: it registers -progress, -status, -log-json and
// the profiler flags, builds the Observer after parsing, and flushes
// everything in one Close. evesim and eve-bench run no observed sweep and
// use the Profiler alone.
//
// # Import boundary
//
// The dependency arrow points one way: telemetry imports internal/sweep and
// internal/sim to observe them; simulator packages (sim, cpu, mem, vengine,
// uprog, sram, circuits, workloads) must never import telemetry. Everything
// here reads wall clocks, allocates freely, and talks to the network — any
// of it reachable from a simulated path would void the sim.Run purity
// contract. The evelint telemetryboundary analyzer enforces the direction
// statically.
//
// # Determinism invariant
//
// Telemetry observes; it never participates. All simulated output —
// reports, journals, goldens, bench comparisons — is byte-identical with
// telemetry enabled or disabled, because every hook hangs off the sweep
// Observer (which by contract never touches a Result) or off host-side
// flag plumbing. The end-to-end test in e2e_test.go and the CI
// telemetry-smoke job both hold the invariant.
package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// histBuckets is the wall-time histogram geometry: log2 buckets at
// 1ms<<k for k in 0..histBuckets-2, plus a +Inf overflow bucket.
const histBuckets = 13

// bucketBoundMS returns the upper bound of bucket i in milliseconds, or -1
// for the +Inf bucket.
func bucketBoundMS(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return 1 << i
}

// bucketOf maps one cell wall time to its histogram bucket.
func bucketOf(wall time.Duration) int {
	ms := wall.Milliseconds()
	for i := 0; i < histBuckets-1; i++ {
		if ms < bucketBoundMS(i) {
			return i
		}
	}
	return histBuckets - 1
}

// CellSummary identifies the last completed cell in a Status.
type CellSummary struct {
	Kernel string `json:"kernel"`
	System string `json:"system"`
	Status string `json:"status"` // ok, failed, timeout
	Cycles int64  `json:"cycles"`
}

// HistBucket is one wall-time histogram bucket of a Status: cells whose
// wall time fell under Le ("1ms", "2ms", ..., "+Inf"), non-cumulative.
type HistBucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// Status is the /status endpoint's JSON document: a point-in-time view of
// the sweep or campaign in flight. Counter fields are exact; the derived
// rate fields (elapsed, cells/sec, ETA) are wall-clock telemetry and
// inherently volatile.
type Status struct {
	Schema       string       `json:"schema"`
	Total        int          `json:"total"`
	Done         int          `json:"done"`
	Failed       int          `json:"failed"`
	Timeout      int          `json:"timeout"`
	Running      int          `json:"running"`
	SweepDone    bool         `json:"sweep_done"`
	JournalDepth int          `json:"journal_depth"`
	ElapsedSec   float64      `json:"elapsed_sec"`
	CellsPerSec  float64      `json:"cells_per_sec"`
	ETASec       float64      `json:"eta_sec"`
	WallHist     []HistBucket `json:"wall_hist"`
	LastCell     *CellSummary `json:"last_cell,omitempty"`
}

// StatusSchema identifies the /status document format; bump on
// incompatible changes.
const StatusSchema = "eve-telemetry/v2"

// Observer is the one host-side sweep.Observer, built by Flags.Start. It
// classifies each cell once, keeps one set of counts under one mutex, and
// writes each event to the outputs that are on, the run-log line before
// the progress line. Its counts span every sweep it observes — a fault
// campaign runs its baselines and its injections as two — while progress
// and run-log lines carry each sweep's own [done/total], and each sweep's
// summary line its own wall time, simulation time and timeouts. A cell is
// named by the label its CellStart carried (a fault campaign's names the
// fault site), not by its result's bare system. It never touches a
// sim.Result, so observing through it cannot perturb a simulated byte.
type Observer struct {
	progress io.Writer // -progress lines; nil when off
	log      io.Writer // -log-json lines; nil when off
	status   bool      // -status: keep the last cell's probe snapshot

	// now is the clock; tests inject a fixed one for deterministic output.
	now func() time.Time

	mu           sync.Mutex
	start        time.Time
	logErr       error // first run-log write or encode error; latches
	finished     int   // cells in the sweeps that already drained
	sweepTotal   int   // cells in the sweep in flight
	done         int
	failed       int
	timeout      int
	running      int
	journalDepth int
	sweepDone    bool
	hist         [histBuckets]int64
	labels       map[int]string // each running cell's CellStart label, by slot
	last         *CellSummary
	lastStats    map[string]float64
	lastWindow   *windowSummary

	// The sweep in flight, for its summary: whether its first event has
	// come, when it came, the sweep's summed per-cell wall time and its
	// timeouts.
	open         bool
	sweepStart   time.Time
	busy         time.Duration
	sweepTimeout int
}

// windowSummary captures the interval time series of the last completed
// cell that carried one, for the /metrics eve_probe_window_* section: the
// window geometry and the final window's counter deltas — the cell's
// closing phase profile. It carries its own cell identity because an
// unsampled cell can complete later and take over o.last while this
// summary stays current.
type windowSummary struct {
	kernel     string
	system     string
	window     int64
	samples    int
	reconfigs  int
	lastDeltas map[string]float64
}

// newObserver returns an Observer writing progress lines to progress and
// run-log lines to log (either nil to turn it off) and, with status set,
// keeping what /metrics shows of the last cell. The construction timestamp
// anchors /status's elapsed time, throughput and ETA, and each sweep's
// first event anchors its progress lines' ETA; both are display telemetry
// and never reach a simulated result.
func newObserver(progress, log io.Writer, status bool) *Observer {
	return &Observer{progress: progress, log: log, status: status, now: time.Now, start: time.Now(),
		labels: make(map[int]string)}
}

// openSweep starts the sweep summary's clock and tallies at a sweep's first
// event: its first CellStart, or SweepDone for a sweep with no cells.
func (o *Observer) openSweep() {
	if o.open {
		return
	}
	o.open = true
	o.sweepStart = o.now()
	o.busy, o.sweepTimeout = 0, 0
}

// cellStatus classifies a cell's final outcome: ok, failed or timeout.
func cellStatus(err error) string {
	switch {
	case err == nil:
		return "ok"
	case sweep.IsTimeout(err):
		return "timeout"
	default:
		return "failed"
	}
}

// eta extrapolates the observed rate, done cells in elapsed seconds, over
// the total-done cells that remain, in seconds; ok is false when there is
// no rate or nothing remains.
func eta(elapsed float64, done, total int) (sec float64, ok bool) {
	if done <= 0 || done >= total || elapsed <= 0 {
		return 0, false
	}
	return float64(total-done) / (float64(done) / elapsed), true
}

// CellStart implements sweep.Observer: it keeps the cell's label for its
// CellDone. The first cell of a sweep opens the sweep's summary and
// reopens the sweep_done state a previous sweep closed.
func (o *Observer) CellStart(i int, kernel, system string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.openSweep()
	o.running++
	o.sweepDone = false
	o.labels[i] = system
	cell := i
	o.emit(Event{Event: "cell_start", Cell: &cell, Kernel: kernel, System: system})
}

// CellDone implements sweep.Observer: classify the cell, fold it into the
// counts and the wall-time histogram, keep the last completed cell's
// identity (and, under -status, its flattened probe snapshot) for
// /metrics, then write its run-log and progress lines. The cell is named
// by its CellStart label, or by r.System when it had no CellStart.
func (o *Observer) CellDone(i, done, total int, r sim.Result, wall time.Duration) {
	status := cellStatus(r.Err)
	var flat map[string]float64
	var win *windowSummary
	if o.status {
		if len(r.Stats) > 0 {
			flat = r.Stats.Flatten()
		}
		if iv := r.Intervals; iv != nil && len(iv.Samples) > 0 {
			win = &windowSummary{
				kernel:     r.Kernel,
				system:     r.System,
				window:     iv.Window,
				samples:    len(iv.Samples),
				reconfigs:  len(iv.Reconfigs),
				lastDeltas: iv.Samples[len(iv.Samples)-1].Deltas.Flatten(),
			}
		}
	}

	o.mu.Lock()
	defer o.mu.Unlock()
	o.openSweep()
	system, ok := o.labels[i]
	if ok {
		delete(o.labels, i)
	} else {
		system = r.System
	}
	o.sweepTotal = total
	o.done++
	o.running--
	switch status {
	case "failed":
		o.failed++
	case "timeout":
		o.timeout++
		o.sweepTimeout++
	}
	o.hist[bucketOf(wall)]++
	o.busy += wall
	o.last = &CellSummary{Kernel: r.Kernel, System: system, Status: status, Cycles: r.Cycles}
	if flat != nil {
		o.lastStats = flat
	}
	if win != nil {
		o.lastWindow = win
	}

	cell := i
	e := Event{Event: "cell_done", Cell: &cell, Kernel: r.Kernel, System: system, Status: status,
		Cycles: r.Cycles, WallMS: wall.Milliseconds(), Done: done, Total: total}
	line := fmt.Sprintf("%d cycles", r.Cycles)
	if r.Err != nil {
		e.Err = r.Err.Error()
		line = "FAILED: " + e.Err
	}
	o.emit(e)
	if o.progress == nil {
		return
	}
	etaTail := ""
	if sec, ok := eta(o.now().Sub(o.sweepStart).Seconds(), done, total); ok {
		etaTail = fmt.Sprintf(" eta %s", time.Duration(sec*float64(time.Second)).Round(time.Second))
	}
	// Progress lines are best-effort: a broken progress pipe must not
	// abort a long sweep.
	_, _ = fmt.Fprintf(o.progress, "[%d/%d] %-11s %-10s %s (%.2fs)%s\n",
		done, total, r.Kernel, system, line, wall.Seconds(), etaTail)
}

// SweepDone implements sweep.Observer: it closes the sweep in the counts
// and writes the sweep_done event and the progress summary, whether the
// sweep completed, aborted, was cancelled or had no cells. The summary
// covers this sweep alone: wall time from its first event, and the
// simulation time and timeouts of its own cells.
func (o *Observer) SweepDone(done, total int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.openSweep()
	o.open = false
	o.finished += total
	o.sweepTotal = 0
	o.sweepDone = true
	o.emit(Event{Event: "sweep_done", Done: done, Total: total})
	if o.progress == nil {
		return
	}
	elapsed := o.now().Sub(o.sweepStart)
	overlap := 0.0
	if elapsed > 0 {
		overlap = o.busy.Seconds() / elapsed.Seconds()
	}
	head := fmt.Sprintf("sweep: %d cells", total)
	if done != total {
		head = fmt.Sprintf("sweep: stopped after %d/%d cells", done, total)
	}
	tail := ""
	if o.sweepTimeout > 0 {
		tail = fmt.Sprintf(", %d timed out", o.sweepTimeout)
	}
	_, _ = fmt.Fprintf(o.progress, "%s in %.2fs wall (%.2fs of simulation, %.1fx overlap%s)\n",
		head, elapsed.Seconds(), o.busy.Seconds(), overlap, tail)
}

// JournalDepth records the campaign journal's durable record count and
// logs the checkpoint (campaign.RunConfig.OnJournal feeds it through
// Flags.JournalDepth).
func (o *Observer) JournalDepth(depth int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.journalDepth = depth
	o.emit(Event{Event: "journal_checkpoint", Depth: depth})
}

// Status assembles the point-in-time /status document. Total counts the
// cells of every sweep so far, so a multi-sweep campaign reads
// done ≤ total throughout and done = total at its end.
func (o *Observer) Status() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	elapsed := o.now().Sub(o.start).Seconds()
	total := o.finished + o.sweepTotal
	s := Status{
		Schema:       StatusSchema,
		Total:        total,
		Done:         o.done,
		Failed:       o.failed,
		Timeout:      o.timeout,
		Running:      o.running,
		SweepDone:    o.sweepDone,
		JournalDepth: o.journalDepth,
		ElapsedSec:   elapsed,
		LastCell:     o.last,
	}
	if elapsed > 0 && o.done > 0 {
		s.CellsPerSec = float64(o.done) / elapsed
	}
	if sec, ok := eta(elapsed, o.done, total); ok && !o.sweepDone {
		s.ETASec = sec
	}
	s.WallHist = make([]HistBucket, histBuckets)
	for i := range o.hist {
		le := "+Inf"
		if b := bucketBoundMS(i); b >= 0 {
			le = strconv.FormatInt(b, 10) + "ms"
		}
		s.WallHist[i] = HistBucket{Le: le, Count: o.hist[i]}
	}
	return s
}
