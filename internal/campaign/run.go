package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analytic"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// RunConfig drives one campaign execution.
type RunConfig struct {
	// Space is the parameter space to explore.
	Space Space
	// Journal is the checkpoint log path. Empty disables journaling (the
	// campaign still runs; it just cannot resume).
	Journal string
	// Resume reopens an existing journal and skips its finished cells
	// instead of truncating it. Timed-out cells re-run (wall time is host
	// trouble, not a simulated property); ok and failed cells are final.
	Resume bool
	// Workers bounds sweep concurrency; ≤ 0 uses the sweep default.
	Workers int
	// CellTimeout is the per-cell wall-clock budget; 0 disables the
	// watchdog.
	CellTimeout time.Duration
	// FsyncEvery fsyncs the journal once N records are unsynced; ≤ 1
	// fsyncs after every batch the journal's writer writes.
	FsyncEvery int
	// Observer, if set, sees per-cell progress (cells carry Label() as
	// their system column).
	Observer sweep.Observer
	// OnJournal, if set, is called once per journaled record, after the
	// fsync that made it durable, with the journal's durable record count
	// (resumed records included): the depths rise by one. It runs on the
	// journal's writer goroutine. It is a host-telemetry hook: it observes
	// checkpoint depth and must not block or touch campaign state.
	OnJournal func(depth int)
	// Interval, when positive, turns on cycle-windowed interval sampling
	// inside every cell (sim.Config.Interval). The time series feeds live
	// telemetry only: it is never journaled or reported, and sampling
	// leaves every simulated byte unchanged, so reports and journals stay
	// byte-identical whatever Interval is — cell identities (Params.ID) do
	// not depend on it.
	Interval int64
	// Context cancels the campaign: in-flight cells finish and are
	// journaled, pending cells are skipped, and Run returns
	// *InterruptedError. Nil means never cancelled.
	Context context.Context
}

// Summary counts the report's cells by disposition.
type Summary struct {
	Total   int `json:"total"`
	OK      int `json:"ok"`
	Failed  int `json:"failed"`
	Timeout int `json:"timeout"`
}

// Report is a completed campaign: every cell of the space in enumeration
// order plus the per-workload Pareto frontiers. All content is a pure
// function of the space, so a report assembled across any number of
// kill/resume cycles is byte-identical to one from an uninterrupted run.
type Report struct {
	Space   Space      `json:"space"`
	Summary Summary    `json:"summary"`
	Cells   []Record   `json:"cells"`
	Pareto  []Frontier `json:"pareto,omitempty"`
}

// InterruptedError reports a cancelled campaign: how far it got, and that
// the journal (if any) holds the checkpoint.
type InterruptedError struct {
	Completed, Total int
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("campaign: interrupted after %d/%d cells; the journal holds the checkpoint — rerun with resume to continue",
		e.Completed, e.Total)
}

// makeRecord freezes a finished cell into its journal record. Only
// deterministic, simulated quantities are captured.
func makeRecord(p Params, r sim.Result) Record {
	rec := Record{Cell: p.ID(), Params: p}
	var te *sweep.TimeoutError
	switch {
	case r.Err == nil:
		rec.Status = StatusOK
		rec.Cycles = r.Cycles
		rec.EnergyReadEq = metrics.EnergyEq(r.Stats)
		rec.SpawnCost = metrics.SpawnCost(r.Stats)
		rec.AreaFactor = analytic.SystemAreaFactor(r.System)
		d := metrics.Derive(r.Stats, r.Cycles)
		if !d.Degenerate {
			rec.L2MissRate = d.L2.MissRate
			rec.LLCMissRate = d.LLC.MissRate
			rec.DRAMBusUtil = d.DRAMBusUtil
		}
	case errors.As(r.Err, &te):
		rec.Status = StatusTimeout
		rec.Reason = sweep.FirstLine(r.Err)
	default:
		rec.Status = StatusFailed
		rec.Reason = sweep.FirstLine(r.Err)
	}
	return rec
}

// journalObserver sits between the sweep pool and the campaign: it turns
// each CellDone into exactly one journal record — CellDone fires once per
// cell, so the journal never double-counts — and forwards progress to the
// user's observer. A journal write failure cancels the campaign:
// continuing without a checkpoint would silently void the crash-safety
// contract. The journal's error is sticky, so the
// failure surfaces at the first Append after the writer hits it.
type journalObserver struct {
	j      *Journal
	params []Params // pending cells by sweep index
	inner  sweep.Observer
	cancel context.CancelFunc

	mu   sync.Mutex
	recs map[string]Record
	err  error
}

func (o *journalObserver) CellStart(i int, kernel, system string) {
	if o.inner != nil {
		o.inner.CellStart(i, kernel, system)
	}
}

func (o *journalObserver) CellDone(i, done, total int, r sim.Result, wall time.Duration) {
	rec := makeRecord(o.params[i], r)
	var err error
	if o.j != nil {
		err = o.j.Append(rec)
	}
	o.mu.Lock()
	o.recs[rec.Cell] = rec
	if err != nil && o.err == nil {
		o.err = err
		o.cancel()
	}
	o.mu.Unlock()
	if o.inner != nil {
		o.inner.CellDone(i, done, total, r, wall)
	}
}

func (o *journalObserver) SweepDone(done, total int) {
	if o.inner != nil {
		o.inner.SweepDone(done, total)
	}
}

// Run executes the campaign: enumerate the space, skip cells the journal
// already settled, run the rest once each on the sweep pool under the
// watchdog, journal each completion, and assemble the report. On
// cancellation it returns *InterruptedError with the checkpoint safely on
// disk; a later Resume run picks up where it stopped and produces the
// byte-identical report.
func Run(cfg RunConfig) (*Report, error) {
	space := cfg.Space.withDefaults()
	if err := space.Validate(); err != nil {
		return nil, err
	}
	all := space.Enumerate()
	ids := make([]string, len(all))
	index := make(map[string]int, len(all))
	for i, p := range all {
		ids[i] = p.ID()
		if prev, dup := index[ids[i]]; dup {
			return nil, fmt.Errorf("campaign: cell ID collision between %s and %s", all[prev], p)
		}
		index[ids[i]] = i
	}

	// Load the checkpoint. Prior records are replayed in file order with
	// last-record-wins semantics, so a journal that (legitimately) holds a
	// timeout record followed by the resumed run's ok record settles on ok.
	var (
		journal *Journal
		settled = make(map[string]Record)
	)
	if cfg.Journal != "" {
		var err error
		if cfg.Resume {
			var prior []Record
			journal, prior, err = Open(cfg.Journal, cfg.FsyncEvery)
			if err != nil {
				return nil, err
			}
			for _, r := range prior {
				i, ok := index[r.Cell]
				if !ok {
					_ = journal.Close()
					return nil, fmt.Errorf("campaign: journal record %s (%s) is not a cell of this space; resuming under a changed space would stitch incompatible results", r.Cell, r.Params)
				}
				if r.Params != all[i] {
					_ = journal.Close()
					return nil, fmt.Errorf("campaign: journal record %s carries parameters %s but the space enumerates %s for that ID", r.Cell, r.Params, all[i])
				}
				settled[r.Cell] = r
			}
		} else {
			journal, err = Create(cfg.Journal, cfg.FsyncEvery)
			if err != nil {
				return nil, err
			}
		}
		defer func() {
			_ = journal.Close()
		}()
		if cfg.OnJournal != nil {
			journal.notify(cfg.OnJournal)
		}
		if journalOpened != nil {
			journalOpened(journal)
		}
	}

	// Pending = never journaled, or journaled as timeout (host trouble —
	// worth another try on a, presumably, healthier host).
	var pending []int
	for i := range all {
		if r, ok := settled[ids[i]]; ok && r.Status != StatusTimeout {
			continue
		}
		pending = append(pending, i)
	}

	ctx, cancel := context.WithCancel(cfgContext(cfg))
	defer cancel()
	obs := &journalObserver{
		j:      journal,
		params: make([]Params, len(pending)),
		inner:  cfg.Observer,
		cancel: cancel,
		recs:   make(map[string]Record, len(pending)),
	}
	// Cells sharing a stream key share one functional run: the first
	// records it, the rest replay it (see streams).
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cells := make([]sweep.Cell, len(pending))
	for slot, i := range pending {
		obs.params[slot] = all[i]
	}
	cache := newStreams(obs.params, workers)
	for slot, p := range obs.params {
		scfg := p.SystemConfig(space.MaxUProgCycles)
		scfg.Interval = cfg.Interval
		cells[slot] = sweep.Cell{
			Kernel: fmt.Sprintf("%s@%d", p.Kernel, p.Scale),
			System: p.Label(),
			Run:    func() sim.Result { return cache.run(slot, p, scfg) },
		}
	}

	_, sweepErr := sweep.ForEach(cells, sweep.Options{
		Workers:     cfg.Workers,
		Observer:    obs,
		Context:     ctx,
		CellTimeout: cfg.CellTimeout,
	})
	// Per-cell failures are recorded, not fatal: graceful degradation means
	// a failed cell is a data point. Only infrastructure failures (journal
	// writes) or cancellation abort the campaign below; sweepErr otherwise
	// only aggregates the per-cell errors already in the journal.
	_ = sweepErr

	obs.mu.Lock()
	journalErr := obs.err
	newRecs := obs.recs
	obs.mu.Unlock()
	if journalErr != nil {
		return nil, journalErr
	}
	if journal != nil {
		if err := journal.Sync(); err != nil {
			return nil, err
		}
	}

	// Assemble the report in enumeration order. A cell missing from both
	// the checkpoint and this run's records was skipped by cancellation.
	rep := &Report{Space: space}
	rep.Cells = make([]Record, 0, len(all))
	missing := 0
	for i := range all {
		r, ok := newRecs[ids[i]]
		if !ok {
			r, ok = settled[ids[i]]
			if !ok || r.Status == StatusTimeout {
				// Never journaled, or journaled as timeout and scheduled
				// for a re-run that cancellation skipped: still unsettled.
				missing++
				continue
			}
		}
		rep.Cells = append(rep.Cells, r)
		rep.Summary.Total++
		switch r.Status {
		case StatusOK:
			rep.Summary.OK++
		case StatusFailed:
			rep.Summary.Failed++
		case StatusTimeout:
			rep.Summary.Timeout++
		}
	}
	if missing > 0 {
		return nil, &InterruptedError{Completed: len(all) - missing, Total: len(all)}
	}
	rep.Pareto = Frontiers(rep.Cells)
	return rep, nil
}

// journalOpened, when a test sets it, sees the journal Run opens, before
// the first cell runs.
var journalOpened func(*Journal)

// cfgContext returns the campaign's cancellation context, never nil.
func cfgContext(cfg RunConfig) context.Context {
	if cfg.Context != nil {
		return cfg.Context
	}
	return context.Background()
}
