package campaign

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
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
	// Journal is the checkpoint log path. Run opens it, creating it if
	// missing, and skips the cells its records settle: ok and failed cells
	// are final, timed-out ones run again. Empty disables journaling (the
	// campaign still runs; it just cannot resume).
	Journal string
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
	// telemetry only and leaves every simulated byte unchanged, so reports,
	// journals and cell IDs do not depend on it.
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
	return fmt.Sprintf("campaign: interrupted after %d/%d cells; the journal holds the checkpoint — rerun with the same journal to continue",
		e.Completed, e.Total)
}

// makeRecord freezes a finished cell into its journal record. Only
// deterministic, simulated quantities are captured.
func makeRecord(p Params, r sim.Result) Record {
	rec := Record{Cell: p.ID(), Params: p}
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
	case sweep.IsTimeout(r.Err):
		rec.Status = StatusTimeout
		rec.Reason = sweep.FirstLine(r.Err)
	default:
		rec.Status = StatusFailed
		rec.Reason = sweep.FirstLine(r.Err)
	}
	return rec
}

// Run executes the campaign: enumerate the space and run its cells through
// Execute, the journal's settled cells skipped and each other cell run
// once on the sweep pool under the watchdog, then assemble the report. On
// cancellation it returns *InterruptedError with the checkpoint safely on
// disk; a later run over the same journal picks up where it stopped and
// produces the byte-identical report.
func Run(cfg RunConfig) (*Report, error) {
	space := cfg.Space.withDefaults()
	if err := space.Validate(); err != nil {
		return nil, err
	}
	all := space.Enumerate()
	ids := make([]string, len(all))
	for i, p := range all {
		ids[i] = p.ID()
	}
	var journal *Journal
	if cfg.Journal != "" {
		var err error
		if journal, err = Open(cfg.Journal, cfg.FsyncEvery, ids, cfg.OnJournal); err != nil {
			return nil, err
		}
		defer func() {
			_ = journal.Close()
		}()
	}
	workers := cmp.Or(max(cfg.Workers, 0), runtime.GOMAXPROCS(0))

	cells, err := Execute(journal, Cells[Record]{
		IDs: ids,
		Resume: func(i int, r Record) (bool, error) {
			if r.Params != all[i] {
				return false, fmt.Errorf("carries parameters %s but the space enumerates %s for that ID", r.Params, all[i])
			}
			// A timeout is host trouble: worth another try on a,
			// presumably, healthier host.
			return r.Status != StatusTimeout, nil
		},
		Sweep: func(pending []int) []sweep.Cell {
			params := make([]Params, len(pending))
			for slot, i := range pending {
				params[slot] = all[i]
			}
			// Cells sharing a stream key share one functional run: the
			// first records it, the rest replay it (see streams).
			cache := newStreams(params, workers)
			cells := make([]sweep.Cell, len(params))
			for slot, p := range params {
				scfg := p.SystemConfig(space.MaxUProgCycles)
				scfg.Interval = cfg.Interval
				cells[slot] = sweep.Cell{
					Kernel: fmt.Sprintf("%s@%d", p.Kernel, p.Scale),
					System: p.Label(),
					Run:    func() sim.Result { return cache.run(slot, p, scfg) },
				}
			}
			return cells
		},
		Freeze: func(i int, r sim.Result) Record { return makeRecord(all[i], r) },
	}, sweep.Options{
		Workers:     cfg.Workers,
		Observer:    cfg.Observer,
		Context:     cfg.Context,
		CellTimeout: cfg.CellTimeout,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Space: space, Summary: Summary{Total: len(cells)}, Cells: cells, Pareto: Frontiers(cells)}
	for _, r := range cells {
		switch r.Status {
		case StatusOK:
			rep.Summary.OK++
		case StatusFailed:
			rep.Summary.Failed++
		case StatusTimeout:
			rep.Summary.Timeout++
		}
	}
	return rep, nil
}

// Cells is one sweep of a journaled campaign: cells with stable IDs, and
// how each cell's result becomes the record its journal holds.
type Cells[R any] struct {
	// IDs names each cell. The journal keys records on them, so a
	// record R must carry its cell's ID in its "cell" field.
	IDs []string
	// Resume checks cell i's journaled record and reports whether it
	// settles the cell; an unsettled cell runs again. An error rejects the
	// journal.
	Resume func(i int, rec R) (settled bool, err error)
	// Sweep builds the sweep cells of the pending cells, in order.
	Sweep func(pending []int) []sweep.Cell
	// Freeze turns cell i's result into its record, on the worker that
	// ran the cell.
	Freeze func(i int, r sim.Result) R
}

// Execute runs one sweep of a campaign through its journal j, which is nil
// for an unjournaled campaign. It skips the cells whose journaled records
// settle them, runs the rest once each in one sweep.ForEach, freezes each
// result into a record and journals it, and returns every cell's record in
// cell order. When opts.Context cancels the sweep before every cell
// settled, it returns *InterruptedError instead: cells in flight finish
// and are journaled, and a later run over the same journal resumes from
// them. A journal write error cancels the sweep and is returned, since
// going on without a checkpoint would void the crash-safety contract.
func Execute[R any](j *Journal, c Cells[R], opts sweep.Options) ([]R, error) {
	var prior map[string][]byte
	if j != nil {
		prior = j.prior
	}
	recs := make([]R, len(c.IDs))
	var pending []int
	for i, id := range c.IDs {
		if body, ok := prior[id]; ok {
			err := json.Unmarshal(body, &recs[i])
			settled := false
			if err == nil {
				settled, err = c.Resume(i, recs[i])
			}
			if err != nil {
				return nil, fmt.Errorf("campaign: journal %s: record %s: %w", j.path, id, err)
			}
			if settled {
				continue
			}
		}
		pending = append(pending, i)
	}

	ctx, cancel := context.WithCancel(cmp.Or(opts.Context, context.Background()))
	defer cancel()
	obs := &journalObserver[R]{j: j, c: c, pending: pending, recs: recs, inner: opts.Observer, cancel: cancel}
	opts.Observer, opts.Context = obs, ctx
	// A failed cell is a data point in its record, so the sweep's
	// aggregate error says nothing the records do not.
	_, _ = sweep.ForEach(c.Sweep(pending), opts)
	if j != nil {
		if err := j.Sync(); err != nil {
			return nil, err
		}
	}
	if done := len(recs) - len(pending) + obs.ran; done < len(recs) {
		return nil, &InterruptedError{Completed: done, Total: len(recs)}
	}
	return recs, nil
}

// journalObserver sits between the sweep pool and the caller's observer:
// CellDone, which fires once per cell run, freezes the cell's record into
// its slot and journals it. A failed Append cancels the sweep; the
// journal's error is sticky, so Execute's final Sync returns it.
type journalObserver[R any] struct {
	j       *Journal
	c       Cells[R]
	pending []int // cell index by sweep slot
	recs    []R
	inner   sweep.Observer
	cancel  context.CancelFunc
	ran     int // cells the sweep ran, from SweepDone
}

func (o *journalObserver[R]) CellStart(slot int, kernel, system string) {
	if o.inner != nil {
		o.inner.CellStart(slot, kernel, system)
	}
}

func (o *journalObserver[R]) CellDone(slot, done, total int, r sim.Result, wall time.Duration) {
	i := o.pending[slot]
	o.recs[i] = o.c.Freeze(i, r)
	if o.j != nil && o.j.append(o.recs[i]) != nil {
		o.cancel()
	}
	if o.inner != nil {
		o.inner.CellDone(slot, done, total, r, wall)
	}
}

func (o *journalObserver[R]) SweepDone(done, total int) {
	o.ran = done
	if o.inner != nil {
		o.inner.SweepDone(done, total)
	}
}
