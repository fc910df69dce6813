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
// -log-json and the Profiler flags on one FlagSet, builds the one Observer
// after parsing, and flushes it all in one Close. CLIs that run no observed
// sweep (evesim, eve-bench) use NewProfiler alone.
type Flags struct {
	prof     *Profiler
	progress *bool
	status   *string
	logJSON  *string

	// stderr receives the progress lines and a "-log-json=-" run log;
	// tests swap it for a buffer.
	stderr io.Writer

	logFile   *os.File
	obs       *Observer
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
// builds the Observer over the outputs that are on, logs SIGINT/SIGTERM
// deliveries and starts the status server. It returns the Observer, or nil
// when -progress, -log-json and -status are all off. Telemetry observes
// through it and, by contract, cannot perturb a simulated byte. On error
// everything already started is released.
func (t *Flags) Start() (sweep.Observer, error) {
	if err := t.prof.Start(); err != nil {
		return nil, err
	}
	if !*t.progress && *t.logJSON == "" && *t.status == "" {
		return nil, nil
	}
	var progress, log io.Writer
	if *t.progress {
		progress = t.stderr
	}
	if *t.logJSON == "-" {
		log = t.stderr
	} else if *t.logJSON != "" {
		f, err := os.OpenFile(*t.logJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, errors.Join(err, t.Close())
		}
		t.logFile, log = f, f
	}
	t.obs = newObserver(progress, log, *t.status != "")
	if log != nil {
		t.stopWatch = WatchSignals(t.obs, os.Interrupt, syscall.SIGTERM)
	}
	if *t.status != "" {
		srv, err := serve(*t.status, t.obs)
		if err != nil {
			return nil, errors.Join(err, t.Close())
		}
		t.srv = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/status\n", srv.Addr())
	}
	return t.obs, nil
}

// JournalDepth is the campaign.RunConfig.OnJournal hook: it feeds the
// checkpoint depth to the Observer, if one is on.
func (t *Flags) JournalDepth(depth int) {
	if t.obs != nil {
		t.obs.JournalDepth(depth)
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
	if t.obs != nil {
		if err := t.obs.Err(); err != nil {
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
