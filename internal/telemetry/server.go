package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
)

// Server is the live status server: an opt-in loopback HTTP listener over
// the Observer's state. Endpoints:
//
//	/status        point-in-time progress JSON (see Status)
//	/metrics       Prometheus text format: sweep counts, the wall-time
//	               histogram, host runtime counters, and the flattened
//	               probe-registry snapshot of the last completed cell
//	/debug/pprof/  the standard pprof handlers (note: /debug/pprof/profile
//	               conflicts with an active -cpuprofile capture; the
//	               handler reports the conflict rather than corrupting it)
//
// The server observes and never participates: stopping it, curling it, or
// never starting it cannot change a simulated byte.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// serve starts a status server for o on addr (host:port; an empty host or
// an explicit loopback address keeps it private to the machine). The
// returned Server is already listening; Close shuts it down.
func serve(addr string, o *Observer) (*Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeStatus(w, o)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetricsHTTP(w, o)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		//evelint:allow errdrop -- best-effort index page; the client sees any failure
		fmt.Fprint(w, "eve telemetry: /status /metrics /debug/pprof/\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() {
		// Serve returns http.ErrServerClosed on Close; a listener torn down
		// at process exit is not a reportable condition either.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the listener's resolved address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }

// writeStatus renders /status: the Status document as indented JSON.
func writeStatus(w http.ResponseWriter, o *Observer) {
	body, err := json.MarshalIndent(o.Status(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

// writeMetricsHTTP renders /metrics.
func writeMetricsHTTP(w http.ResponseWriter, o *Observer) {
	var buf bytes.Buffer
	o.WriteMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// WriteMetrics renders the Prometheus text exposition: the sweep counts
// and wall-time histogram, host runtime counters
// (prefixed eve_host_, inherently volatile), and the flattened
// probe-registry snapshot of the last completed cell as an
// eve_probe_stat{stat="..."} family. Output is deterministic given a fixed
// count state up to the eve_host_ section, which tests filter out.
func (o *Observer) WriteMetrics(w *bytes.Buffer) {
	o.mu.Lock()
	total, done, failed, timeout, running := o.finished+o.sweepTotal, o.done, o.failed, o.timeout, o.running
	journalDepth := o.journalDepth
	sweepDone := 0
	if o.sweepDone {
		sweepDone = 1
	}
	hist := o.hist
	busy := o.busy
	last := o.last
	lastStats := o.lastStats
	lastWindow := o.lastWindow
	o.mu.Unlock()

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("eve_sweep_cells_total", "Cells in the sweep or campaign.", int64(total))
	gauge("eve_sweep_cells_done", "Cells completed so far.", int64(done))
	gauge("eve_sweep_cells_failed", "Cells whose final outcome was a failure.", int64(failed))
	gauge("eve_sweep_cells_timeout", "Cells whose final outcome was a wall-clock timeout.", int64(timeout))
	gauge("eve_sweep_cells_running", "Cells currently in flight.", int64(running))
	gauge("eve_sweep_done", "1 once the sweep has drained.", int64(sweepDone))
	gauge("eve_sweep_journal_depth", "Campaign journal record count (0 without a journal).", int64(journalDepth))

	// The wall-time histogram in Prometheus convention: cumulative buckets,
	// le in seconds.
	fmt.Fprintf(w, "# HELP eve_cell_wall_seconds Per-cell wall time.\n# TYPE eve_cell_wall_seconds histogram\n")
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += hist[i]
		le := "+Inf"
		if b := bucketBoundMS(i); b >= 0 {
			le = fmt.Sprintf("%g", float64(b)/1000)
		}
		fmt.Fprintf(w, "eve_cell_wall_seconds_bucket{le=%q} %d\n", le, cum)
	}
	fmt.Fprintf(w, "eve_cell_wall_seconds_sum %g\n", float64(busy)/1e9)
	fmt.Fprintf(w, "eve_cell_wall_seconds_count %d\n", cum)

	// The probe-registry snapshot of the last completed cell: the first
	// concrete slice of the eve-serve /metrics export. Dotted stat paths
	// ride in a label (Prometheus metric names cannot carry dots).
	if last != nil && len(lastStats) > 0 {
		fmt.Fprintf(w, "# HELP eve_probe_stat Probe-registry snapshot of the last completed cell (kernel %s, system %s).\n", last.Kernel, last.System)
		fmt.Fprintf(w, "# TYPE eve_probe_stat gauge\n")
		names := make([]string, 0, len(lastStats))
		for name := range lastStats {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "eve_probe_stat{kernel=%q,system=%q,stat=%q} %g\n",
				labelEscape(last.Kernel), labelEscape(last.System), labelEscape(name), lastStats[name])
		}
	}

	// The interval-sampled phase profile of the last completed cell that ran
	// with sampling on (campaign -interval): window geometry plus the final
	// window's per-path counter deltas — a live view of how the cell ended,
	// not just what it totalled. The summary carries its own cell identity:
	// an unsampled cell finishing later takes over eve_probe_stat but not
	// this section.
	if lastWindow != nil {
		gauge("eve_probe_window_size", "Interval sampling window of the last sampled cell, in simulated cycles.", lastWindow.window)
		gauge("eve_probe_window_samples", "Windows recorded for the last sampled cell.", int64(lastWindow.samples))
		gauge("eve_probe_window_reconfig_events", "Reconfiguration events (spawn/borrow/return/teardown) on the last sampled cell's timeline.", int64(lastWindow.reconfigs))
		if len(lastWindow.lastDeltas) > 0 {
			fmt.Fprintf(w, "# HELP eve_probe_window_delta Final-window counter deltas of the last sampled cell (kernel %s, system %s).\n", lastWindow.kernel, lastWindow.system)
			fmt.Fprintf(w, "# TYPE eve_probe_window_delta gauge\n")
			names := make([]string, 0, len(lastWindow.lastDeltas))
			for name := range lastWindow.lastDeltas {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(w, "eve_probe_window_delta{kernel=%q,system=%q,stat=%q} %g\n",
					labelEscape(lastWindow.kernel), labelEscape(lastWindow.system), labelEscape(name), lastWindow.lastDeltas[name])
			}
		}
	}

	// Host runtime counters: volatile by nature, last so tests can truncate.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gauge("eve_host_goroutines", "Goroutines in the host process.", int64(runtime.NumGoroutine()))
	gauge("eve_host_heap_alloc_bytes", "Live heap bytes.", int64(m.HeapAlloc))
	gauge("eve_host_total_alloc_bytes", "Cumulative allocated bytes.", int64(m.TotalAlloc))
	gauge("eve_host_num_gc", "Completed GC cycles.", int64(m.NumGC))
	gauge("eve_host_gc_pause_total_ns", "Cumulative GC stop-the-world pause.", int64(m.PauseTotalNs))
}

// labelEscape escapes a Prometheus label value (backslash, quote, newline).
func labelEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
