package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// fixedClock returns a now func frozen at t.
func fixedClock(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

// testObserver returns a status-only Observer with a deterministic clock:
// constructed at epoch, observed 10s later.
func testObserver() *Observer {
	epoch := time.Unix(1700000000, 0).UTC()
	o := newObserver(nil, nil, true)
	o.start = epoch
	o.now = fixedClock(epoch.Add(10 * time.Second))
	return o
}

func TestCountersClassification(t *testing.T) {
	c := testObserver()
	c.CellStart(0, "vvadd", "O3+EVE-8")
	c.CellStart(1, "mmult", "IO")
	c.CellStart(2, "sw", "O3")

	ok := sim.Result{Kernel: "vvadd", System: "O3+EVE-8", Cycles: 1234}
	c.CellDone(0, 1, 4, ok, 3*time.Millisecond)

	failed := sim.Result{Kernel: "mmult", System: "IO", Err: errors.New("checker mismatch")}
	c.CellDone(1, 2, 4, failed, 40*time.Millisecond)

	timeoutErr := fmt.Errorf("wrapped: %w", &sweep.TimeoutError{Kernel: "sw", System: "O3", Budget: time.Second})
	c.CellDone(2, 3, 4, sim.Result{Kernel: "sw", System: "O3", Err: timeoutErr}, 1500*time.Millisecond)

	c.JournalDepth(7)

	s := c.Status()
	if s.Schema != StatusSchema {
		t.Errorf("schema = %q, want %q", s.Schema, StatusSchema)
	}
	if s.Total != 4 || s.Done != 3 || s.Failed != 1 || s.Timeout != 1 {
		t.Errorf("counters = total %d done %d failed %d timeout %d, want 4/3/1/1",
			s.Total, s.Done, s.Failed, s.Timeout)
	}
	if s.Running != 0 {
		t.Errorf("running = %d, want 0 (3 started, 3 done)", s.Running)
	}
	if s.SweepDone {
		t.Error("sweep_done before SweepDone fired")
	}
	if s.JournalDepth != 7 {
		t.Errorf("journal_depth = %d, want 7", s.JournalDepth)
	}
	if s.ElapsedSec != 10 {
		t.Errorf("elapsed_sec = %v, want 10 under the fixed clock", s.ElapsedSec)
	}
	if s.CellsPerSec != 0.3 {
		t.Errorf("cells_per_sec = %v, want 0.3", s.CellsPerSec)
	}
	// 1 cell remaining at 0.3 cells/sec.
	if want := 1 / 0.3; s.ETASec < want-1e-9 || s.ETASec > want+1e-9 {
		t.Errorf("eta_sec = %v, want %v", s.ETASec, want)
	}
	if s.LastCell == nil || s.LastCell.Kernel != "sw" || s.LastCell.Status != "timeout" {
		t.Errorf("last_cell = %+v, want the sw timeout", s.LastCell)
	}

	// Histogram: 3ms → bucket le=4ms, 40ms → le=64ms, 1500ms → le=2048ms.
	counts := map[string]int64{}
	var histTotal int64
	for _, b := range s.WallHist {
		counts[b.Le] = b.Count
		histTotal += b.Count
	}
	if histTotal != 3 {
		t.Errorf("histogram holds %d cells, want 3", histTotal)
	}
	for _, le := range []string{"4ms", "64ms", "2048ms"} {
		if counts[le] != 1 {
			t.Errorf("bucket %s = %d, want 1", le, counts[le])
		}
	}

	c.SweepDone(3, 4)
	s = c.Status()
	if !s.SweepDone {
		t.Error("sweep_done not set after SweepDone")
	}
	if s.ETASec != 0 {
		t.Errorf("eta_sec = %v after SweepDone, want 0", s.ETASec)
	}
}

// TestCountersRace hammers one Observer's counts from concurrent sweep
// workers while readers pull Status and metrics — the race detector is the
// assertion.
func TestCountersRace(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := newObserver(nil, nil, true)
			cells := make([]sweep.Cell, 64)
			for i := range cells {
				i := i
				cells[i] = sweep.Cell{
					Kernel: fmt.Sprintf("k%d", i),
					System: "sys",
					Run: func() sim.Result {
						r := sim.Result{Kernel: fmt.Sprintf("k%d", i), System: "sys", Cycles: int64(i)}
						if i%7 == 0 {
							r.Err = errors.New("synthetic failure")
						}
						if i%5 == 0 {
							r.Stats = probe.Stats{{Name: "core.insts", Kind: probe.KindCounter, Int: int64(i)}}
						}
						return r
					},
				}
			}
			stop := make(chan struct{})
			var rd sync.WaitGroup
			rd.Add(1)
			go func() {
				defer rd.Done()
				var buf bytes.Buffer
				for {
					select {
					case <-stop:
						return
					default:
						_ = c.Status()
						buf.Reset()
						c.WriteMetrics(&buf)
						c.JournalDepth(1)
					}
				}
			}()
			_, _ = sweep.ForEach(cells, sweep.Options{Workers: workers, Observer: c})
			close(stop)
			rd.Wait()
			s := c.Status()
			if s.Done != 64 || !s.SweepDone {
				t.Errorf("done = %d sweep_done = %v, want 64/true", s.Done, s.SweepDone)
			}
			// Cells 0,7,14,...,63 fail deterministically.
			if s.Failed != 10 {
				t.Errorf("failed = %d, want 10", s.Failed)
			}
		})
	}
}

// TestStatusGoldenShape pins the /status document shape: an injected clock
// makes every field deterministic.
func TestStatusGoldenShape(t *testing.T) {
	c := testObserver()
	c.CellStart(0, "vvadd", "O3+EVE-8")
	r := sim.Result{
		Kernel: "vvadd", System: "O3+EVE-8", Cycles: 4242,
		Stats: probe.Stats{{Name: "core.insts", Kind: probe.KindCounter, Int: 99}},
	}
	c.CellDone(0, 1, 2, r, 3*time.Millisecond)
	c.JournalDepth(1)

	body, err := json.MarshalIndent(c.Status(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "schema": "eve-telemetry/v2",
  "total": 2,
  "done": 1,
  "failed": 0,
  "timeout": 0,
  "running": 0,
  "sweep_done": false,
  "journal_depth": 1,
  "elapsed_sec": 10,
  "cells_per_sec": 0.1,
  "eta_sec": 10,
  "wall_hist": [
    {
      "le": "1ms",
      "count": 0
    },
    {
      "le": "2ms",
      "count": 0
    },
    {
      "le": "4ms",
      "count": 1
    },
    {
      "le": "8ms",
      "count": 0
    },
    {
      "le": "16ms",
      "count": 0
    },
    {
      "le": "32ms",
      "count": 0
    },
    {
      "le": "64ms",
      "count": 0
    },
    {
      "le": "128ms",
      "count": 0
    },
    {
      "le": "256ms",
      "count": 0
    },
    {
      "le": "512ms",
      "count": 0
    },
    {
      "le": "1024ms",
      "count": 0
    },
    {
      "le": "2048ms",
      "count": 0
    },
    {
      "le": "+Inf",
      "count": 0
    }
  ],
  "last_cell": {
    "kernel": "vvadd",
    "system": "O3+EVE-8",
    "status": "ok",
    "cycles": 4242
  }
}`
	if string(body) != want {
		t.Errorf("/status document diverged from the golden shape:\n got:\n%s\n want:\n%s", body, want)
	}
}

// TestMetricsGoldenShape pins the stable prefix of the /metrics exposition
// (everything above the volatile eve_host_ section).
func TestMetricsGoldenShape(t *testing.T) {
	c := testObserver()
	c.CellStart(0, "vvadd", "O3+EVE-8")
	r := sim.Result{
		Kernel: "vvadd", System: "O3+EVE-8", Cycles: 4242,
		Stats: probe.Stats{
			{Name: "core.insts", Kind: probe.KindCounter, Int: 99},
			{Name: "l2.hits", Kind: probe.KindCounter, Int: 42},
		},
	}
	c.CellDone(0, 1, 2, r, 3*time.Millisecond)
	c.JournalDepth(1)

	var buf bytes.Buffer
	c.WriteMetrics(&buf)
	got := buf.String()
	// Truncate the host section: goroutine and heap numbers are volatile by
	// nature and explicitly out of the golden contract.
	if i := strings.Index(got, "# HELP eve_host_"); i >= 0 {
		got = got[:i]
	} else {
		t.Fatalf("metrics output lacks the eve_host_ section:\n%s", got)
	}
	want := `# HELP eve_sweep_cells_total Cells in the sweep or campaign.
# TYPE eve_sweep_cells_total gauge
eve_sweep_cells_total 2
# HELP eve_sweep_cells_done Cells completed so far.
# TYPE eve_sweep_cells_done gauge
eve_sweep_cells_done 1
# HELP eve_sweep_cells_failed Cells whose final outcome was a failure.
# TYPE eve_sweep_cells_failed gauge
eve_sweep_cells_failed 0
# HELP eve_sweep_cells_timeout Cells whose final outcome was a wall-clock timeout.
# TYPE eve_sweep_cells_timeout gauge
eve_sweep_cells_timeout 0
# HELP eve_sweep_cells_running Cells currently in flight.
# TYPE eve_sweep_cells_running gauge
eve_sweep_cells_running 0
# HELP eve_sweep_done 1 once the sweep has drained.
# TYPE eve_sweep_done gauge
eve_sweep_done 0
# HELP eve_sweep_journal_depth Campaign journal record count (0 without a journal).
# TYPE eve_sweep_journal_depth gauge
eve_sweep_journal_depth 1
# HELP eve_cell_wall_seconds Per-cell wall time.
# TYPE eve_cell_wall_seconds histogram
eve_cell_wall_seconds_bucket{le="0.001"} 0
eve_cell_wall_seconds_bucket{le="0.002"} 0
eve_cell_wall_seconds_bucket{le="0.004"} 1
eve_cell_wall_seconds_bucket{le="0.008"} 1
eve_cell_wall_seconds_bucket{le="0.016"} 1
eve_cell_wall_seconds_bucket{le="0.032"} 1
eve_cell_wall_seconds_bucket{le="0.064"} 1
eve_cell_wall_seconds_bucket{le="0.128"} 1
eve_cell_wall_seconds_bucket{le="0.256"} 1
eve_cell_wall_seconds_bucket{le="0.512"} 1
eve_cell_wall_seconds_bucket{le="1.024"} 1
eve_cell_wall_seconds_bucket{le="2.048"} 1
eve_cell_wall_seconds_bucket{le="+Inf"} 1
eve_cell_wall_seconds_sum 0.003
eve_cell_wall_seconds_count 1
# HELP eve_probe_stat Probe-registry snapshot of the last completed cell (kernel vvadd, system O3+EVE-8).
# TYPE eve_probe_stat gauge
eve_probe_stat{kernel="vvadd",system="O3+EVE-8",stat="core.insts"} 99
eve_probe_stat{kernel="vvadd",system="O3+EVE-8",stat="l2.hits"} 42
`
	if got != want {
		t.Errorf("/metrics stable section diverged from the golden shape:\n got:\n%s\n want:\n%s", got, want)
	}
}

func TestBucketGeometry(t *testing.T) {
	cases := []struct {
		wall time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Microsecond, 0},
		{time.Millisecond, 1},
		{3 * time.Millisecond, 2},
		{2047 * time.Millisecond, histBuckets - 2},
		{2048 * time.Millisecond, histBuckets - 1},
		{time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.wall); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.wall, got, c.want)
		}
	}
}

// The zero-overhead pair: a sweep cell with no observer (telemetry
// disabled — the default) vs the same cell behind the status Observer. The
// disabled case is the pinned contract: telemetry off must cost nothing
// because no telemetry code runs at all; the enabled case documents that
// the full count path is a few locked additions per *cell* (not per
// cycle), noise against any real simulation.
func benchCell() sweep.Cell {
	return sweep.Cell{Kernel: "bench", System: "sys", Run: func() sim.Result {
		return sim.Result{Kernel: "bench", System: "sys", Cycles: 1}
	}}
}

func BenchmarkSweepCellTelemetryOff(b *testing.B) {
	cells := []sweep.Cell{benchCell()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = sweep.ForEach(cells, sweep.Options{Workers: 1})
	}
}

func BenchmarkSweepCellTelemetryStatus(b *testing.B) {
	cells := []sweep.Cell{benchCell()}
	c := newObserver(nil, nil, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = sweep.ForEach(cells, sweep.Options{Workers: 1, Observer: c})
	}
}

// TestMetricsWindowSection covers the interval-sampled slice of /metrics: a
// cell that ran with sampling on publishes its window geometry, reconfig
// count and final-window deltas; cells without a series leave the section out
// but never erase the last sampled one.
func TestMetricsWindowSection(t *testing.T) {
	c := testObserver()
	c.CellStart(0, "vvadd", "O3+EVE-8")
	r := sim.Result{
		Kernel: "vvadd", System: "O3+EVE-8", Cycles: 4242,
		Stats: probe.Stats{{Name: "core.insts", Kind: probe.KindCounter, Int: 99}},
		Intervals: &probe.Series{
			Window: 2000,
			Samples: []probe.Sample{
				{Start: 0, End: 2000, Deltas: probe.Stats{{Name: "l2.misses", Kind: probe.KindCounter, Int: 30}}},
				{Start: 2000, End: 4242, Deltas: probe.Stats{{Name: "l2.misses", Kind: probe.KindCounter, Int: 7}}},
			},
			Reconfigs: []probe.ReconfigEvent{
				{Comp: "eve", Cycle: 0, Event: "borrow", Ways: 4, Owned: 4},
				{Comp: "eve", Cycle: 4242, Event: "return", Ways: 4, Owned: 0},
			},
		},
	}
	c.CellDone(0, 1, 2, r, 3*time.Millisecond)

	var buf bytes.Buffer
	c.WriteMetrics(&buf)
	got := buf.String()
	for _, want := range []string{
		"eve_probe_window_size 2000",
		"eve_probe_window_samples 2",
		"eve_probe_window_reconfig_events 2",
		`eve_probe_window_delta{kernel="vvadd",system="O3+EVE-8",stat="l2.misses"} 7`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("/metrics missing %q:\n%s", want, got)
		}
	}

	// A later unsampled cell keeps the last sampled cell's window section —
	// including its labels, which must not be rewritten to the new cell.
	c.CellStart(1, "mmult", "IO")
	c.CellDone(1, 2, 2, sim.Result{Kernel: "mmult", System: "IO", Cycles: 10}, time.Millisecond)
	buf.Reset()
	c.WriteMetrics(&buf)
	got = buf.String()
	if !strings.Contains(got, "eve_probe_window_size 2000") {
		t.Error("unsampled cell erased the last sampled cell's window section")
	}
	if !strings.Contains(got, `eve_probe_window_delta{kernel="vvadd",system="O3+EVE-8",stat="l2.misses"} 7`) {
		t.Errorf("window deltas lost their originating cell's labels:\n%s", got)
	}
}
