package sweep

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/sim"
)

// Progress is an Observer printing one line per completed cell — aggregate
// progress, the cell's cycle count (or failure) and its wall time — plus a
// sweep summary when the pool drains. The summary is emitted from SweepDone,
// so it survives early aborts and cancellation: an interrupted sweep still
// reports how far it got instead of going silent. Progress serializes writes
// internally, so a single Progress may observe any number of workers.
type Progress struct {
	mu       sync.Mutex
	w        io.Writer
	start    time.Time
	busy     time.Duration // summed per-cell wall time (CPU-side work)
	timedOut int           // cells whose final outcome was a watchdog timeout
}

// NewProgress returns a Progress writing to w. The construction timestamp
// anchors the sweep's elapsed-time summary; it is display-only and never
// reaches a simulated result.
func NewProgress(w io.Writer) *Progress {
	return &Progress{w: w, start: time.Now()} //evelint:allow simpurity -- progress telemetry, not simulated state
}

// CellStart implements Observer.
func (p *Progress) CellStart(i int, kernel, system string) {}

// CellDone implements Observer.
func (p *Progress) CellDone(i, done, total int, r sim.Result, wall time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busy += wall
	status := fmt.Sprintf("%d cycles", r.Cycles)
	if r.Err != nil {
		status = "FAILED: " + r.Err.Error()
		if IsTimeout(r.Err) {
			p.timedOut++
		}
	}
	// The ETA extrapolates the observed cells/sec over the remaining cells.
	// It is display-only wall-clock telemetry and never reaches a Result.
	eta := ""
	elapsed := time.Since(p.start) //evelint:allow simpurity -- progress telemetry, not simulated state
	if done > 0 && done < total && elapsed > 0 {
		remaining := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		eta = fmt.Sprintf(" eta %s", remaining.Round(time.Second))
	}
	// Progress lines are best-effort: a broken progress pipe must not abort
	// a long sweep, so write errors are deliberately ignored.
	//evelint:allow errdrop -- best-effort progress output; a failed write must not kill the sweep
	fmt.Fprintf(p.w, "[%d/%d] %-11s %-10s %s (%.2fs)%s\n",
		done, total, r.Kernel, r.System, status, wall.Seconds(), eta)
}

// SweepDone implements Observer: the end-of-sweep summary, emitted whether
// the sweep completed, aborted, or was cancelled.
func (p *Progress) SweepDone(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	elapsed := time.Since(p.start) //evelint:allow simpurity -- progress telemetry, not simulated state
	overlap := 0.0
	if elapsed > 0 {
		overlap = p.busy.Seconds() / elapsed.Seconds()
	}
	head := fmt.Sprintf("sweep: %d cells", total)
	if done != total {
		head = fmt.Sprintf("sweep: stopped after %d/%d cells", done, total)
	}
	tail := ""
	if p.timedOut > 0 {
		tail = fmt.Sprintf(", %d timed out", p.timedOut)
	}
	//evelint:allow errdrop -- best-effort progress output; a failed write must not kill the sweep
	fmt.Fprintf(p.w, "%s in %.2fs wall (%.2fs of simulation, %.1fx overlap%s)\n",
		head, elapsed.Seconds(), p.busy.Seconds(), overlap, tail)
}
