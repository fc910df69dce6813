package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// determinismKernels is a reduced grid that still exercises every engine
// path — streaming loads/stores, strided k-means traffic, multiplies,
// predication, reductions — while keeping the serial-vs-parallel
// comparison fast enough to run under the race detector in CI.
func determinismKernels() []*workloads.Kernel {
	return []*workloads.Kernel{
		workloads.NewVVAdd(1 << 10),
		workloads.NewMMult(8, 8, 64),
		workloads.NewKMeans(256, 8, 3),
		workloads.NewSW(48),
	}
}

// TestParallelMatchesSerial is the determinism regression test: the
// parallel runner must reproduce the serial sim.Matrix exactly — cycles,
// instruction mixes, breakdowns, cache stats, everything in sim.Result —
// at every worker count. Run with -race, this doubles as the data-race
// audit of the whole simulation stack.
func TestParallelMatchesSerial(t *testing.T) {
	systems := sim.AllSystems()
	kernels := determinismKernels()
	want := sim.Matrix(systems, kernels)

	workerCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, workers := range workerCounts {
		got, err := Matrix(systems, kernels, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d kernel rows, want %d", workers, len(got), len(want))
		}
		for ki := range want {
			for si := range want[ki] {
				if !reflect.DeepEqual(got[ki][si], want[ki][si]) {
					t.Errorf("workers=%d: cell (%s, %s) diverges from serial:\n got  %+v\n want %+v",
						workers, kernels[ki].Name, systems[si].Name(), got[ki][si], want[ki][si])
				}
			}
		}
	}
}

// TestRepeatedParallelRunsIdentical re-runs the same parallel sweep and
// requires identical matrices — scheduling noise must never leak into
// results.
func TestRepeatedParallelRunsIdentical(t *testing.T) {
	systems := []sim.Config{{Kind: sim.SysIO}, {Kind: sim.SysO3EVE, N: 8}}
	kernels := []*workloads.Kernel{workloads.NewVVAdd(1 << 10), workloads.NewSW(48)}
	first, err := Matrix(systems, kernels, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Matrix(systems, kernels, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two identical parallel sweeps disagree:\n first  %+v\n second %+v", first, second)
	}
}

// panicKernel crashes midway through its simulation.
func panicKernel() *workloads.Kernel {
	return &workloads.Kernel{
		Name:  "panics",
		Suite: "test",
		Input: "n/a",
		Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
			panic("deliberate test crash")
		},
	}
}

// failKernel simulates fine but fails output validation.
func failKernel() *workloads.Kernel {
	return &workloads.Kernel{
		Name:  "fails",
		Suite: "test",
		Input: "n/a",
		Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
			b.ScalarOps(1)
			return func() error { return errors.New("validation mismatch") }
		},
	}
}

// TestPanicBecomesCellError: a crashing cell must not kill the sweep; it
// lands in that cell's Result.Err with the panic message, and healthy
// cells still complete.
func TestPanicBecomesCellError(t *testing.T) {
	systems := []sim.Config{{Kind: sim.SysIO}}
	kernels := []*workloads.Kernel{panicKernel(), workloads.NewVVAdd(256)}
	got, err := Matrix(systems, kernels, Options{Workers: 2})
	if err == nil {
		t.Fatal("sweep with a panicking cell returned nil error")
	}
	if !strings.Contains(got[0][0].Err.Error(), "deliberate test crash") {
		t.Errorf("panic cell error = %v, want the panic message", got[0][0].Err)
	}
	if got[0][0].System != "IO" || got[0][0].Kernel != "panics" {
		t.Errorf("panic cell lost its identity: %+v", got[0][0])
	}
	if got[1][0].Err != nil {
		t.Errorf("healthy cell failed after sibling panic: %v", got[1][0].Err)
	}
	if got[1][0].Cycles <= 0 {
		t.Errorf("healthy cell has nonpositive cycles: %+v", got[1][0])
	}
}

// TestAbortOnError: with one worker the grid runs in row-major order, so a
// first-cell failure must skip every later cell with ErrSkipped.
func TestAbortOnError(t *testing.T) {
	systems := []sim.Config{{Kind: sim.SysIO}}
	kernels := []*workloads.Kernel{failKernel(), workloads.NewVVAdd(256), workloads.NewSW(48)}
	got, err := Matrix(systems, kernels, Options{Workers: 1, AbortOnError: true})
	if err == nil {
		t.Fatal("aborting sweep returned nil error")
	}
	if got[0][0].Err == nil || !strings.Contains(got[0][0].Err.Error(), "validation mismatch") {
		t.Errorf("failing cell error = %v", got[0][0].Err)
	}
	for ki := 1; ki < len(kernels); ki++ {
		if !errors.Is(got[ki][0].Err, ErrSkipped) {
			t.Errorf("cell %d after failure: err = %v, want ErrSkipped", ki, got[ki][0].Err)
		}
		if got[ki][0].Kernel != kernels[ki].Name || got[ki][0].System != "IO" {
			t.Errorf("skipped cell %d lost its identity: %+v", ki, got[ki][0])
		}
	}
	// The reported error is the row-major first failure, not a skip marker.
	if errors.Is(err, ErrSkipped) {
		t.Errorf("sweep error should be the root failure, got %v", err)
	}
}

// countingObserver tallies events for the observer-plumbing test.
type countingObserver struct {
	mu        sync.Mutex
	starts    int
	dones     int
	maxDon    int
	total     int
	wall      time.Duration
	sweepDone int         // SweepDone invocations
	finalDone int         // done count reported by SweepDone
	cellsSeen map[int]int // cell index -> CellDone count
}

func (c *countingObserver) CellStart(i int, kernel, system string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.starts++
}

func (c *countingObserver) CellDone(i, done, total int, r sim.Result, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dones++
	c.total = total
	if done > c.maxDon {
		c.maxDon = done
	}
	c.wall += wall
	if c.cellsSeen == nil {
		c.cellsSeen = map[int]int{}
	}
	c.cellsSeen[i]++
}

func (c *countingObserver) SweepDone(done, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepDone++
	c.finalDone = done
}

// TestObserverSeesEveryCell checks the progress plumbing: one start and one
// done per cell, the done counter reaching the grid size, and nonzero
// aggregate wall time.
func TestObserverSeesEveryCell(t *testing.T) {
	systems := []sim.Config{{Kind: sim.SysIO}, {Kind: sim.SysO3}}
	kernels := []*workloads.Kernel{workloads.NewVVAdd(256), workloads.NewSW(32)}
	obs := &countingObserver{}
	if _, err := Matrix(systems, kernels, Options{Workers: 3, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	cells := len(systems) * len(kernels)
	if obs.starts != cells || obs.dones != cells {
		t.Errorf("observer saw %d starts / %d dones, want %d each", obs.starts, obs.dones, cells)
	}
	if obs.maxDon != cells || obs.total != cells {
		t.Errorf("observer progress peaked at %d/%d, want %d/%d", obs.maxDon, obs.total, cells, cells)
	}
	if obs.wall <= 0 {
		t.Errorf("observer aggregate wall time = %v, want > 0", obs.wall)
	}
	if obs.sweepDone != 1 || obs.finalDone != cells {
		t.Errorf("SweepDone fired %d times with done=%d, want once with %d", obs.sweepDone, obs.finalDone, cells)
	}
	for i := 0; i < cells; i++ {
		if obs.cellsSeen[i] != 1 {
			t.Errorf("cell %d fired CellDone %d times, want once", i, obs.cellsSeen[i])
		}
	}
}

// TestEmptyGrid: a degenerate sweep must return the right shape and no
// error rather than deadlocking on an empty job stream, and its observer
// still gets exactly one SweepDone — a rerun over a finished journal sweeps
// nothing but must still end with a summary.
func TestEmptyGrid(t *testing.T) {
	obs := &countingObserver{finalDone: -1}
	got, err := Matrix(nil, nil, Options{Workers: 4, Observer: obs})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep = (%v, %v), want ([], nil)", got, err)
	}
	if obs.sweepDone != 1 || obs.finalDone != 0 || obs.starts != 0 || obs.dones != 0 {
		t.Errorf("empty sweep: %d SweepDone (done=%d), %d starts, %d dones; want one SweepDone(0, 0) and no cell events",
			obs.sweepDone, obs.finalDone, obs.starts, obs.dones)
	}
	got, err = Matrix(sim.AllSystems(), nil, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("kernel-less sweep = (%v, %v), want ([], nil)", got, err)
	}
}

// TestContextCancelSkipsRemaining: with one worker the grid runs in order,
// so a cancellation fired from inside the first cell must mark every later
// cell ErrSkipped — the early-abort path reused for cancellation — while
// the finished cell's result stands and SweepDone still reports the tally.
func TestContextCancelSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ok := sim.Result{Kernel: "k", System: "s", Cycles: 7}
	cells := []Cell{
		{Kernel: "first", System: "s", Run: func() sim.Result { cancel(); return ok }},
		{Kernel: "second", System: "s", Run: func() sim.Result { return ok }},
		{Kernel: "third", System: "s", Run: func() sim.Result { return ok }},
	}
	obs := &countingObserver{}
	got, err := ForEach(cells, Options{Workers: 1, Context: ctx, Observer: obs})
	if err == nil || !errors.Is(err, ErrSkipped) {
		t.Fatalf("cancelled sweep error = %v, want ErrSkipped symptom", err)
	}
	if got[0].Err != nil || got[0].Cycles != 7 {
		t.Errorf("finished cell perturbed by cancellation: %+v", got[0])
	}
	for i := 1; i < len(cells); i++ {
		if !errors.Is(got[i].Err, ErrSkipped) {
			t.Errorf("cell %d after cancel: err = %v, want ErrSkipped", i, got[i].Err)
		}
	}
	if obs.sweepDone != 1 || obs.finalDone != 1 || obs.total != 3 {
		t.Errorf("observer summary after cancel = %d fires, %d/%d done, want 1 fire, 1/3", obs.sweepDone, obs.finalDone, obs.total)
	}
}

// TestContextCancelRace drives a real parallel sweep while cancelling from
// the outside — under -race this audits the cancellation path's memory
// discipline. Every cell must land either a valid result or ErrSkipped, and
// the observer must see exactly one SweepDone.
func TestContextCancelRace(t *testing.T) {
	systems := sim.AllSystems()
	kernels := determinismKernels()
	var cells []Cell
	for _, k := range kernels {
		for _, s := range systems {
			k, s := k, s
			cells = append(cells, Cell{Kernel: k.Name, System: s.Name(),
				Run: func() sim.Result { return sim.Run(s, k) }})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	obs := &countingObserver{}
	done := make(chan struct{})
	go func() {
		// Cancel as soon as the first few cells complete.
		for {
			obs.mu.Lock()
			n := obs.dones
			obs.mu.Unlock()
			if n >= 2 {
				cancel()
				close(done)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	got, _ := ForEach(cells, Options{Workers: 4, Context: ctx, Observer: obs})
	<-done
	cancel()
	finished := 0
	for i, r := range got {
		switch {
		case errors.Is(r.Err, ErrSkipped):
		case r.Err == nil && r.Cycles > 0:
			finished++
		default:
			t.Errorf("cell %d has unexpected outcome: cycles=%d err=%v", i, r.Cycles, r.Err)
		}
	}
	if finished == 0 {
		t.Error("no cell finished before cancellation took effect")
	}
	if obs.sweepDone != 1 {
		t.Errorf("SweepDone fired %d times, want exactly once", obs.sweepDone)
	}
	if obs.finalDone != finished {
		t.Errorf("SweepDone reported %d done, observer counted %d", obs.finalDone, finished)
	}
}

// TestCellTimeout: the wall-clock watchdog must convert a wedged cell into
// a *TimeoutError result with a stable first line, while healthy siblings
// complete untouched.
func TestCellTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cells := []Cell{
		{Kernel: "wedged", System: "s", Run: func() sim.Result {
			<-release // blocks until test teardown
			return sim.Result{Kernel: "wedged", System: "s"}
		}},
		{Kernel: "healthy", System: "s", Run: func() sim.Result {
			return sim.Result{Kernel: "healthy", System: "s", Cycles: 3}
		}},
	}
	got, err := ForEach(cells, Options{Workers: 2, CellTimeout: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("sweep with a wedged cell returned nil error")
	}
	var te *TimeoutError
	if !errors.As(got[0].Err, &te) {
		t.Fatalf("wedged cell error = %v, want *TimeoutError", got[0].Err)
	}
	if te.Kernel != "wedged" || te.Budget != 20*time.Millisecond {
		t.Errorf("timeout identity = %+v", te)
	}
	if want := "sweep: wedged on s exceeded the 20ms per-cell wall-clock budget"; te.Error() != want {
		t.Errorf("timeout message = %q, want %q (stable first line)", te.Error(), want)
	}
	if got[1].Err != nil || got[1].Cycles != 3 {
		t.Errorf("healthy sibling perturbed: %+v", got[1])
	}
}

// TestEachCellRunsOnce: a sweep simulates every cell exactly once. A cell
// is a pure function of its parameters, so a failure is the cell's result,
// not a reason to run it again; the healthy cell beside it is not re-run
// either.
func TestEachCellRunsOnce(t *testing.T) {
	var runs [2]atomic.Int32
	fail := errors.New("deterministic failure")
	cells := []Cell{
		{Kernel: "failing", System: "s", Run: func() sim.Result {
			runs[0].Add(1)
			return sim.Result{Kernel: "failing", System: "s", Err: fail}
		}},
		{Kernel: "healthy", System: "s", Run: func() sim.Result {
			runs[1].Add(1)
			return sim.Result{Kernel: "healthy", System: "s", Cycles: 1}
		}},
	}
	got, err := ForEach(cells, Options{Workers: 2})
	if !errors.Is(err, fail) {
		t.Fatalf("sweep error = %v, want the failing cell's error", err)
	}
	if n0, n1 := runs[0].Load(), runs[1].Load(); n0 != 1 || n1 != 1 {
		t.Errorf("runs = [%d %d], want [1 1]", n0, n1)
	}
	if !errors.Is(got[0].Err, fail) || got[1].Err != nil || got[1].Cycles != 1 {
		t.Errorf("results = %+v, want the failure and the healthy result as returned", got)
	}
}
