package telemetry

import (
	"encoding/json"
	"os"
	"os/signal"
	"time"
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

// emit writes one run-log line when the log is on; o.mu must be held. The
// first write or encode error latches and suppresses further lines (the
// log is telemetry — it must never abort a run).
func (o *Observer) emit(e Event) {
	if o.log == nil || o.logErr != nil {
		return
	}
	e.Time = o.now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(e)
	if err == nil {
		_, err = o.log.Write(append(line, '\n'))
	}
	o.logErr = err
}

// Err reports the run log's first write or encode error, if any, so CLIs
// can warn once at exit instead of per line.
func (o *Observer) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.logErr
}

// signal logs a host signal (SIGINT/SIGTERM) delivery.
func (o *Observer) signal(sig string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.emit(Event{Event: "signal", Signal: sig})
}

// WatchSignals logs each delivery of sigs to o's run log until the
// returned stop function is called. It registers its own notification
// channel, so it composes with signal.NotifyContext-based cancellation in
// the CLIs.
func WatchSignals(o *Observer, sigs ...os.Signal) (stop func()) {
	ch := make(chan os.Signal, 4)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case sig := <-ch:
				o.signal(sig.String())
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
