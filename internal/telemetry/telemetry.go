// Package telemetry is the host-side observability layer: it watches the
// machine *running* the simulator, never the machine being simulated.
//
// Three pillars, all stdlib-only and all opt-in:
//
//   - Profiler: uniform -cpuprofile/-memprofile/-profile-dir flag wiring for
//     every CLI, with an idempotent Stop so signal-cancelled runs still
//     flush valid pprof files.
//   - Counters + Server: a thread-safe counter-bearing sweep.Observer
//     feeding a live HTTP status server — /status (progress, throughput,
//     ETA, per-cell wall-time histogram), /metrics (Prometheus text: host
//     counters plus the probe-registry snapshot of the last completed
//     cell), and /debug/pprof/*.
//   - Logger: a structured JSON run log, one machine-parseable line per
//     lifecycle event (cell start/done/timeout, journal checkpoint, signal
//     received), so campaign post-mortems stop being stderr
//     archaeology.
//
// Flags wires the pillars into the sweep-running CLIs (eve-figures,
// eve-faults, eve-explore) in one place: it registers -progress, -status,
// -log-json and the profiler flags, chains the observers after parsing,
// and flushes everything in one Close. evesim and eve-bench have no
// observer chain and use the Profiler alone.
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
// observer chain (which by contract never touches a Result) or off
// host-side flag plumbing. The end-to-end test in e2e_test.go and the CI
// telemetry-smoke job both hold the invariant.
package telemetry

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// histBuckets is the wall-time histogram geometry: log2 buckets at
// 1ms<<k for k in 0..histBuckets-2, plus a +Inf overflow bucket.
const histBuckets = 13

// bucketFloorMS returns the upper bound of bucket i in milliseconds, or -1
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

// Counters is a thread-safe, counter-bearing sweep.Observer: the status
// server's data source. It forwards every event to Inner (if set), so it
// composes with the progress printer and the JSON run log, and it never
// touches a sim.Result — observing through Counters cannot perturb a
// simulated byte.
type Counters struct {
	// Inner receives every observer event after Counters accounts it; nil
	// disables forwarding.
	Inner sweep.Observer

	// now is the clock; tests inject a fixed one for deterministic Status
	// documents.
	now func() time.Time

	mu           sync.Mutex
	start        time.Time
	total        int
	done         int
	failed       int
	timeout      int
	running      int
	journalDepth int
	sweepDone    bool
	hist         [histBuckets]int64
	wallSumNS    int64
	last         *CellSummary
	lastStats    map[string]float64
	lastWindow   *windowSummary
}

// windowSummary captures the interval time series of the last completed
// cell that carried one, for the /metrics eve_probe_window_* section: the
// window geometry and the final window's counter deltas — the cell's
// closing phase profile. It carries its own cell identity because an
// unsampled cell can complete later and take over c.last while this
// summary stays current.
type windowSummary struct {
	kernel     string
	system     string
	window     int64
	samples    int
	reconfigs  int
	lastDeltas map[string]float64
}

// NewCounters returns a Counters forwarding to inner (which may be nil).
// The construction timestamp anchors throughput and ETA; it is display
// telemetry and never reaches a simulated result.
func NewCounters(inner sweep.Observer) *Counters {
	return &Counters{
		Inner: inner,
		now:   time.Now,
		start: time.Now(),
	}
}

// CellStart implements sweep.Observer.
func (c *Counters) CellStart(i int, kernel, system string) {
	c.mu.Lock()
	c.running++
	c.mu.Unlock()
	if c.Inner != nil {
		c.Inner.CellStart(i, kernel, system)
	}
}

// CellDone implements sweep.Observer: classify the cell (ok, failed,
// timed out), fold its wall time into the histogram, and keep the last
// completed cell's identity and flattened probe snapshot for /metrics.
func (c *Counters) CellDone(i, done, total int, r sim.Result, wall time.Duration) {
	status := "ok"
	var te *sweep.TimeoutError
	switch {
	case r.Err == nil:
	case errors.As(r.Err, &te):
		status = "timeout"
	default:
		status = "failed"
	}
	var flat map[string]float64
	if len(r.Stats) > 0 {
		flat = r.Stats.Flatten()
	}
	var win *windowSummary
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

	c.mu.Lock()
	c.total = total
	c.done++
	c.running--
	switch status {
	case "failed":
		c.failed++
	case "timeout":
		c.timeout++
	}
	c.hist[bucketOf(wall)]++
	c.wallSumNS += wall.Nanoseconds()
	c.last = &CellSummary{Kernel: r.Kernel, System: r.System, Status: status, Cycles: r.Cycles}
	if flat != nil {
		c.lastStats = flat
	}
	if win != nil {
		c.lastWindow = win
	}
	c.mu.Unlock()

	if c.Inner != nil {
		c.Inner.CellDone(i, done, total, r, wall)
	}
}

// SweepDone implements sweep.Observer.
func (c *Counters) SweepDone(done, total int) {
	c.mu.Lock()
	c.total = total
	c.sweepDone = true
	c.mu.Unlock()
	if c.Inner != nil {
		c.Inner.SweepDone(done, total)
	}
}

// SetJournalDepth records the campaign journal's current record count
// (campaign.RunConfig.OnJournal feeds it).
func (c *Counters) SetJournalDepth(depth int) {
	c.mu.Lock()
	c.journalDepth = depth
	c.mu.Unlock()
}

// Status assembles the point-in-time /status document.
func (c *Counters) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := c.now().Sub(c.start).Seconds()
	s := Status{
		Schema:       StatusSchema,
		Total:        c.total,
		Done:         c.done,
		Failed:       c.failed,
		Timeout:      c.timeout,
		Running:      c.running,
		SweepDone:    c.sweepDone,
		JournalDepth: c.journalDepth,
		ElapsedSec:   elapsed,
		LastCell:     c.last,
	}
	if elapsed > 0 && c.done > 0 {
		s.CellsPerSec = float64(c.done) / elapsed
	}
	if !c.sweepDone && s.CellsPerSec > 0 && c.total > c.done {
		s.ETASec = float64(c.total-c.done) / s.CellsPerSec
	}
	s.WallHist = make([]HistBucket, histBuckets)
	for i := range c.hist {
		le := "+Inf"
		if b := bucketBoundMS(i); b >= 0 {
			le = formatMS(b)
		}
		s.WallHist[i] = HistBucket{Le: le, Count: c.hist[i]}
	}
	return s
}

// formatMS renders a millisecond bucket bound as its Status label.
func formatMS(ms int64) string {
	return strconv.FormatInt(ms, 10) + "ms"
}
