package telemetry

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"

	"repro/internal/sweep"
)

// Flags is the telemetry wiring shared by the sweep-running CLIs
// (eve-figures, eve-faults, eve-explore): it registers -progress, -status,
// -log-json and the Profiler flags on one FlagSet, builds the observer
// chain after parsing, and flushes it all in one Close. CLIs without an
// observer chain (evesim, eve-bench) use NewProfiler alone.
type Flags struct {
	prof     *Profiler
	progress *bool
	status   *string
	logJSON  *string

	// stderr receives the progress lines and a "-log-json=-" run log;
	// tests swap it for a buffer.
	stderr io.Writer

	logFile   *os.File
	logger    *Logger
	counters  *Counters
	srv       *Server
	stopWatch func()
}

// NewFlags registers the telemetry flags on fs.
func NewFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		progress: fs.Bool("progress", false, "report per-cell progress and wall time on stderr"),
		status:   fs.String("status", "", "serve live /status, /metrics and /debug/pprof/ on this address (e.g. 127.0.0.1:8321; default off)"),
		logJSON:  fs.String("log-json", "", "append one JSON line per lifecycle event to this file (\"-\" for stderr)"),
		prof:     NewProfiler(fs),
		stderr:   os.Stderr,
	}
}

// Start runs after flag parsing: it starts the profiler, opens the run log,
// logs SIGINT/SIGTERM deliveries and starts the status server. It returns
// the observer chain — progress printer innermost, then the run log, then
// the status counters — or nil when every flag is off. Telemetry observes
// through the chain and, by contract, cannot perturb a simulated byte. On
// error everything already started is released.
func (t *Flags) Start() (sweep.Observer, error) {
	if err := t.prof.Start(); err != nil {
		return nil, err
	}
	var obs sweep.Observer
	if *t.progress {
		obs = sweep.NewProgress(t.stderr)
	}
	if *t.logJSON != "" {
		out := t.stderr
		if *t.logJSON != "-" {
			f, err := os.OpenFile(*t.logJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, errors.Join(err, t.Close())
			}
			t.logFile, out = f, f
		}
		t.logger = NewLogger(out, obs)
		obs = t.logger
		t.stopWatch = WatchSignals(t.logger, os.Interrupt, syscall.SIGTERM)
	}
	if *t.status != "" {
		t.counters = NewCounters(obs)
		obs = t.counters
		srv, err := Serve(*t.status, t.counters)
		if err != nil {
			return nil, errors.Join(err, t.Close())
		}
		t.srv = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/status\n", srv.Addr())
	}
	return obs, nil
}

// JournalDepth is the campaign.RunConfig.OnJournal hook: it feeds the
// checkpoint depth to the status counters and the run log, whichever are on.
func (t *Flags) JournalDepth(depth int) {
	if t.counters != nil {
		t.counters.SetJournalDepth(depth)
	}
	if t.logger != nil {
		t.logger.JournalCheckpoint(depth)
	}
}

// Close flushes in order: the status server, the signal watch, the run log
// (its first write error and the file's close error are both reported),
// then the profiler. Call it once, after a successful Start (a failed
// Start has already released what it started).
func (t *Flags) Close() error {
	if t.srv != nil {
		_ = t.srv.Close()
	}
	if t.stopWatch != nil {
		t.stopWatch()
	}
	var errs []error
	if t.logger != nil {
		if err := t.logger.Err(); err != nil {
			errs = append(errs, fmt.Errorf("run log: %w", err))
		}
	}
	if t.logFile != nil {
		if err := t.logFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("run log: %w", err))
		}
	}
	errs = append(errs, t.prof.Stop())
	return errors.Join(errs...)
}
