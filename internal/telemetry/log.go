package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Event is one structured run-log line: a lifecycle event of the host
// process, never of the simulated machine. Fields beyond Time/Event are
// populated per event kind and omitted otherwise.
type Event struct {
	Time   string `json:"time"` // RFC3339Nano, host wall clock
	Event  string `json:"event"`
	Cell   *int   `json:"cell,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	System string `json:"system,omitempty"`
	Status string `json:"status,omitempty"` // cell_done: ok, failed, timeout
	Cycles int64  `json:"cycles,omitempty"`
	WallMS int64  `json:"wall_ms,omitempty"`
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
	Err    string `json:"err,omitempty"`
	Depth  int    `json:"depth,omitempty"`  // journal_checkpoint
	Signal string `json:"signal,omitempty"` // signal
}

// Logger is the structured run log: a sweep.Observer that emits one JSON
// line per lifecycle event, so campaign post-mortems are a jq query
// instead of stderr archaeology. It forwards every event to Inner (if set)
// and, like every telemetry hook, never touches a sim.Result.
type Logger struct {
	// Inner receives every observer event after Logger records it; nil
	// disables forwarding.
	Inner sweep.Observer

	// now is the clock; tests inject a fixed one for deterministic lines.
	now func() time.Time

	mu  sync.Mutex
	out io.Writer
	err error
}

// NewLogger returns a Logger writing JSON lines to out, forwarding events
// to inner (which may be nil).
func NewLogger(out io.Writer, inner sweep.Observer) *Logger {
	return &Logger{Inner: inner, now: time.Now, out: out}
}

// emit writes one event line; the first write error latches and suppresses
// further output (the log is telemetry — it must never abort a run).
func (l *Logger) emit(e Event) {
	e.Time = l.now().UTC().Format(time.RFC3339Nano)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		l.err = err
		return
	}
	if _, err := l.out.Write(append(line, '\n')); err != nil {
		l.err = err
	}
}

// Err reports the first write or encode error, if any, so CLIs can warn
// once at exit instead of per-line.
func (l *Logger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// CellStart implements sweep.Observer.
func (l *Logger) CellStart(i int, kernel, system string) {
	cell := i
	l.emit(Event{Event: "cell_start", Cell: &cell, Kernel: kernel, System: system})
	if l.Inner != nil {
		l.Inner.CellStart(i, kernel, system)
	}
}

// CellDone implements sweep.Observer.
func (l *Logger) CellDone(i, done, total int, r sim.Result, wall time.Duration) {
	status := "ok"
	errMsg := ""
	if r.Err != nil {
		errMsg = r.Err.Error()
		if sweep.IsTimeout(r.Err) {
			status = "timeout"
		} else {
			status = "failed"
		}
	}
	cell := i
	l.emit(Event{
		Event:  "cell_done",
		Cell:   &cell,
		Kernel: r.Kernel,
		System: r.System,
		Status: status,
		Cycles: r.Cycles,
		WallMS: wall.Milliseconds(),
		Done:   done,
		Total:  total,
		Err:    errMsg,
	})
	if l.Inner != nil {
		l.Inner.CellDone(i, done, total, r, wall)
	}
}

// SweepDone implements sweep.Observer.
func (l *Logger) SweepDone(done, total int) {
	l.emit(Event{Event: "sweep_done", Done: done, Total: total})
	if l.Inner != nil {
		l.Inner.SweepDone(done, total)
	}
}

// JournalCheckpoint logs a campaign journal append
// (campaign.RunConfig.OnJournal feeds it).
func (l *Logger) JournalCheckpoint(depth int) {
	l.emit(Event{Event: "journal_checkpoint", Depth: depth})
}

// SignalReceived logs a host signal (SIGINT/SIGTERM) delivery.
func (l *Logger) SignalReceived(sig string) {
	l.emit(Event{Event: "signal", Signal: sig})
}

// WatchSignals logs each delivery of sigs to l until the returned stop
// function is called. It registers its own notification channel, so it
// composes with signal.NotifyContext-based cancellation in the CLIs.
func WatchSignals(l *Logger, sigs ...os.Signal) (stop func()) {
	ch := make(chan os.Signal, 4)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case sig := <-ch:
				l.SignalReceived(sig.String())
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
