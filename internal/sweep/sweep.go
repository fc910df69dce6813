// Package sweep runs grids of independent simulations concurrently on a
// bounded pool of worker goroutines.
//
// Every cell of a grid is one independent simulation: sim.Run builds all of
// its state — memory hierarchy, core model, vector engine, workload inputs —
// per call and shares nothing mutable across calls (the purity contract
// documented on sim.Run). Grids are therefore embarrassingly parallel, and
// ForEach exploits that while keeping the output *identical* to a serial
// loop: each worker writes its sim.Result into the cell's pre-assigned slot,
// so neither the worker count nor the completion order can influence the
// assembled results. The determinism regression test in sweep_test.go holds
// this invariant, under the race detector, across several worker counts.
//
// Matrix is the (kernel, system) sweep of Fig 6 / Table IV; the journaled
// campaigns of internal/campaign (exploration and, through it, fault
// injection) run each of their sweeps through one ForEach. Beyond the pool
// the package adds a pluggable Observer reporting per-cell wall time and
// progress, early abort on the first validation failure, a per-cell
// wall-clock watchdog, and panic recovery that turns a crashed simulation
// into its cell's Result.Err. Each cell runs exactly once: a simulation is
// a pure function of its cell, so a failed cell could only fail again.
package sweep

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// ErrSkipped marks a cell that was never simulated because the sweep
// stopped handing out work early: an abort on an earlier validation failure
// (Options.AbortOnError) or a cancelled Options.Context. Skipped cells are
// a symptom, never a root cause, and resumable campaigns treat them as
// simply not-yet-run.
var ErrSkipped = errors.New("sweep: cell skipped after early abort")

// PanicError is a cell's recovered panic: the simulation crashed in a way
// sim.Run does not convert into a typed sim.SimError (a simulator bug
// rather than a modeled fault path). The first line of Error() is stable
// and machine-comparable; the stack is host-dependent diagnostics.
type PanicError struct {
	Value string // rendered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panicked: %s\n%s", e.Value, e.Stack)
}

// FirstLine is err's message up to its first newline: the stable,
// machine-comparable part of a cell error, without host-dependent
// diagnostics such as a PanicError's stack.
func FirstLine(err error) string {
	s, _, _ := strings.Cut(err.Error(), "\n")
	return s
}

// TimeoutError is a cell abandoned by the per-cell wall-clock watchdog
// (Options.CellTimeout). It is host trouble by definition — a
// deterministic simulation either always finishes within any sane budget or
// trips the in-simulation uprog watchdog deterministically — so resumable
// campaigns journal it as unsettled and re-run it on resume rather than
// treating it as a simulated outcome.
// The message is stable: the budget is configuration, not measurement.
type TimeoutError struct {
	Kernel, System string
	Budget         time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sweep: %s on %s exceeded the %v per-cell wall-clock budget", e.Kernel, e.System, e.Budget)
}

// IsTimeout reports whether err is (or wraps) a watchdog *TimeoutError, so
// observers can classify a cell's final outcome without unwrapping by hand.
func IsTimeout(err error) bool {
	var te *TimeoutError
	return errors.As(err, &te)
}

// Observer receives sweep progress events. CellStart and CellDone are
// invoked from worker goroutines, possibly concurrently; implementations
// must be safe for concurrent use.
type Observer interface {
	// CellStart fires when a worker picks up cell i of the grid.
	CellStart(i int, kernel, system string)
	// CellDone fires once per cell when cell i's simulation returns (or
	// its panic is recovered, or the watchdog gives up on it). done counts
	// completed cells so far — monotonic across the sweep, ending at total
	// when no abort occurs — and wall is the cell's host wall-clock time.
	// Skipped cells (abort, cancellation) never fire CellDone.
	CellDone(i, done, total int, r sim.Result, wall time.Duration)
	// SweepDone fires exactly once, after the pool drains — on completion,
	// early abort, or cancellation alike — with the number of cells that
	// actually completed. It is the hook for final summaries that must not
	// vanish when a sweep stops early.
	SweepDone(done, total int)
}

// Options configure a sweep.
type Options struct {
	// Workers bounds the pool; ≤0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Observer receives progress events; nil disables reporting.
	Observer Observer
	// AbortOnError stops handing out new cells after the first cell whose
	// Result.Err is non-nil (validation failure or recovered panic). Cells
	// already running finish; cells never started carry ErrSkipped. Which
	// cells are skipped depends on scheduling — determinism holds only for
	// sweeps that run to completion.
	AbortOnError bool
	// Context cancels the sweep: cells not yet started when the context is
	// cancelled are marked ErrSkipped (the early-abort path) instead of
	// running, so a SIGINT-wired caller checkpoints partial results and
	// exits cleanly instead of dropping work mid-write. Cells already
	// running finish — a cell in flight still lands its result. Nil means
	// never cancelled.
	Context context.Context
	// CellTimeout bounds one cell's host wall-clock time; ≤0 disables the
	// watchdog. A tripped cell yields a *TimeoutError result. The
	// abandoned simulation goroutine runs on to completion in the
	// background — sim.Run's purity contract means it can no longer affect
	// anything — so the budget bounds progress, not process memory. This is
	// the host-side complement of sim.Config.MaxUProgCycles, which bounds
	// *simulated* micro-program cycles deterministically.
	CellTimeout time.Duration
}

// Cell is one schedulable simulation of a grid: a closure plus the labels
// observers and error reports identify it by. Run must obey the sim.Run
// purity contract (no shared mutable state across cells).
type Cell struct {
	Kernel string
	System string
	Run    func() sim.Result
}

// ForEach runs every cell on the worker pool and returns the results in
// cell order, regardless of worker count or completion order. The returned
// error is the first root failure in cell order (nil if every cell
// validated; ErrSkipped cells are only a symptom of an abort and are
// reported only if no root failure exists). The full result slice is
// returned alongside any error so callers can report every failure.
func ForEach(cells []Cell, opts Options) ([]sim.Result, error) {
	out := make([]sim.Result, len(cells))
	total := len(cells)
	if total == 0 {
		return out, nil
	}

	jobs := make(chan int)
	ctx := cmp.Or(opts.Context, context.Background())
	var (
		wg      sync.WaitGroup
		done    atomic.Int64
		aborted atomic.Bool
	)
	workers := min(cmp.Or(max(opts.Workers, 0), runtime.GOMAXPROCS(0)), total)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				c := cells[i]
				if (opts.AbortOnError && aborted.Load()) || ctx.Err() != nil {
					out[i] = sim.Result{System: c.System, Kernel: c.Kernel, Err: ErrSkipped}
					continue
				}
				if opts.Observer != nil {
					opts.Observer.CellStart(i, c.Kernel, c.System)
				}
				// Wall time here is observer telemetry only — it never touches
				// a Result, so the determinism contract is unaffected.
				start := time.Now() //evelint:allow simpurity -- progress telemetry, not simulated state
				r := runCellBounded(c, opts.CellTimeout)
				out[i] = r
				if r.Err != nil {
					aborted.Store(true)
				}
				if opts.Observer != nil {
					//evelint:allow simpurity -- per-cell wall time feeds the progress observer only
					opts.Observer.CellDone(i, int(done.Add(1)), total, r, time.Since(start))
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if opts.Observer != nil {
		opts.Observer.SweepDone(int(done.Load()), total)
	}

	// Report the first *root* failure in cell order; a skipped cell is only
	// a symptom of an abort and never the headline error.
	var skipErr error
	for i := range cells {
		err := out[i].Err
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("sweep: %s on %s: %w", cells[i].Kernel, cells[i].System, err)
		if !errors.Is(err, ErrSkipped) {
			return out, wrapped
		}
		if skipErr == nil {
			skipErr = wrapped
		}
	}
	return out, skipErr
}

// Matrix simulates every kernel on every system and returns results indexed
// [kernel][system], exactly like the serial sim.Matrix. The returned error
// is the first cell error in row-major grid order (nil if every cell
// validated); the full matrix is returned alongside it so callers can
// report every failure, not just the first.
func Matrix(systems []sim.Config, kernels []*workloads.Kernel, opts Options) ([][]sim.Result, error) {
	cells := make([]Cell, 0, len(kernels)*len(systems))
	for _, k := range kernels {
		for _, s := range systems {
			cells = append(cells, Cell{
				Kernel: k.Name,
				System: s.Name(),
				Run:    func() sim.Result { return sim.Run(s, k) },
			})
		}
	}
	flat, err := ForEach(cells, opts)
	out := make([][]sim.Result, len(kernels))
	for i := range out {
		out[i] = flat[i*len(systems) : (i+1)*len(systems)]
	}
	return out, err
}

// runCellBounded runs one cell under the wall-clock watchdog. A timed-out
// cell keeps running in a background goroutine — goroutines cannot be
// killed, and sim.Run's purity contract guarantees the orphan shares nothing
// — while the cell's slot records a *TimeoutError; the buffered channel lets
// the orphan finish and exit without a receiver.
func runCellBounded(c Cell, timeout time.Duration) sim.Result {
	if timeout <= 0 {
		return runCell(c)
	}
	ch := make(chan sim.Result, 1)
	go func() { ch <- runCell(c) }()
	watchdog := time.NewTimer(timeout) //evelint:allow simpurity -- wall-clock watchdog over host progress, not simulated state
	defer watchdog.Stop()
	select {
	case r := <-ch:
		return r
	case <-watchdog.C:
		return sim.Result{
			System: c.System,
			Kernel: c.Kernel,
			Err:    &TimeoutError{Kernel: c.Kernel, System: c.System, Budget: timeout},
		}
	}
}

// runCell runs one cell, converting a panicking simulation into a Result
// carrying the panic (and its stack) as the cell's error.
func runCell(c Cell) (r sim.Result) {
	defer func() {
		if p := recover(); p != nil {
			r = sim.Result{
				System: c.System,
				Kernel: c.Kernel,
				Err:    &PanicError{Value: fmt.Sprint(p), Stack: debug.Stack()},
			}
		}
	}()
	return c.Run()
}
