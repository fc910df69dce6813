package campaign

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// replaySpace is a 64-cell space whose every stream is shared by eight
// memory systems (L2 ways × LLC capacity × DRAM latency), over a
// unit-stride, a gather and a reduction kernel.
func replaySpace() Space {
	return Space{
		Kernels:     []string{"vvadd", "spmv", "redux", "k-means"},
		Scales:      []int{256},
		Seeds:       []uint64{3},
		N:           []int{4, 32},
		L2Ways:      []int{8, 16},
		LLCKB:       []int{1024, 2048},
		DRAMLatency: []int64{100, 200},
	}
}

// liveReport runs cfg with every cell live: no stream fits a zero-byte
// cap, so each key's recording is abandoned and its other cells run live.
func liveReport(t *testing.T, cfg RunConfig) []byte {
	t.Helper()
	defer func(old int) { streamLimit = old }(streamLimit)
	streamLimit = 0
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reportJSON(t, rep)
}

// TestRunReplayMatchesLive: a campaign whose cells replay shared streams
// reports byte-identically to one that runs every cell live, at one and
// four workers, with interval sampling on, and with each cell under a
// wall-clock watchdog.
func TestRunReplayMatchesLive(t *testing.T) {
	want := liveReport(t, RunConfig{Space: replaySpace(), Workers: 1})
	for _, cfg := range []RunConfig{
		{Space: replaySpace(), Workers: 1},
		{Space: replaySpace(), Workers: 4},
		{Space: replaySpace(), Workers: 2, Interval: 1000},
		{Space: replaySpace(), Workers: 2, CellTimeout: time.Minute},
	} {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, rep); !bytes.Equal(got, want) {
			t.Errorf("workers %d, interval %d: replayed report differs from the live one\n%s", cfg.Workers, cfg.Interval, firstDiff(got, want))
		}
	}
}

// TestRunReplayTrippingWatchdog: with a watchdog budget that trips, the
// recording cell aborts, its key runs live, and the report equals the
// all-live one — failed cells, reasons and all.
func TestRunReplayTrippingWatchdog(t *testing.T) {
	for _, budget := range []int{1, 200} {
		s := replaySpace()
		s.MaxUProgCycles = budget
		want := liveReport(t, RunConfig{Space: s, Workers: 2})
		rep, err := Run(RunConfig{Space: s, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary.Failed == 0 {
			t.Errorf("budget %d: no cell tripped the watchdog", budget)
		}
		if got := reportJSON(t, rep); !bytes.Equal(got, want) {
			t.Errorf("budget %d: report differs from the all-live one\n%s", budget, firstDiff(got, want))
		}
	}
}

// TestStreamsRecordReplayRecycle walks the cache through one key's life at
// one worker: the first cell records, the later ones replay, the log goes
// back to the free list after the last cell, and the next key's recording
// reuses that storage. A key with a single cell never records.
func TestStreamsRecordReplayRecycle(t *testing.T) {
	cells := replaySpace().withDefaults().Enumerate()[:9] // one key's 8 cells, then the next key's first
	c := newStreams(cells, 1)
	first, next := c.cells[0], c.cells[8]
	if first.pending != 8 || next.pending != 1 || next == first {
		t.Fatalf("pending counts %d and %d, want two keys of 8 and 1", first.pending, next.pending)
	}

	var log []byte
	for i := 0; i < 8; i++ {
		c.run(i, cells[i], cells[i].SystemConfig(0))
		switch {
		case i == 0 && first.stream == nil:
			t.Fatal("the first cell did not record its stream")
		case i == 0:
			log = first.stream.Bytes()
		case i < 7 && first.stream == nil:
			t.Fatalf("cell %d: the stream was dropped before the key's last cell", i)
		}
	}
	if first.stream != nil || first.pending != 0 || len(c.free) != 1 {
		t.Fatalf("after the last cell: stream kept %t, %d pending, %d free buffers; want the log on the free list", first.stream != nil, first.pending, len(c.free))
	}
	if &c.free[0][:1][0] != &log[:1][0] {
		t.Error("the free list does not hold the finished key's storage")
	}

	// The next key has no other cell: it runs live and keeps the buffer free.
	c.run(8, cells[8], cells[8].SystemConfig(0))
	if next.stream != nil || len(c.free) != 1 {
		t.Errorf("a single-cell key recorded (stream %t, %d free buffers)", next.stream != nil, len(c.free))
	}

	// A second cache draws its first recording from a warm free list.
	want := bytes.Clone(log)
	c2 := newStreams(cells[:2], 1)
	c2.free = append(c2.free, log[:0])
	c2.run(0, cells[0], cells[0].SystemConfig(0))
	st := c2.cells[0].stream
	if st == nil || &st.Bytes()[:1][0] != &log[:1][0] {
		t.Fatal("a recording did not reuse the free buffer")
	}
	if !bytes.Equal(st.Bytes(), want) {
		t.Error("re-recording the same key gave different bytes")
	}
}

// onStreamRan makes the cache tell fn each cell's path, for the rest of the
// test.
func onStreamRan(t *testing.T, fn func(slot int, how string)) {
	old := streamRan
	streamRan = fn
	t.Cleanup(func() { streamRan = old })
}

// pathCounts counts, per stream key, the cells that took each path.
type pathCounts struct {
	mu    sync.Mutex
	cells []Params
	paths map[streamKey]map[string]int
}

func newPathCounts(t *testing.T, cells []Params) *pathCounts {
	pc := &pathCounts{cells: cells, paths: make(map[streamKey]map[string]int)}
	onStreamRan(t, func(slot int, how string) {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		k := cells[slot].streamKey()
		if pc.paths[k] == nil {
			pc.paths[k] = make(map[string]int)
		}
		pc.paths[k][how]++
	})
	return pc
}

// checkRecordOnce fails t unless every key of several cells was recorded
// exactly once and replayed by each of its other cells, none running live.
func (pc *pathCounts) checkRecordOnce(t *testing.T, name string) {
	t.Helper()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	size := make(map[streamKey]int)
	for _, p := range pc.cells {
		size[p.streamKey()]++
	}
	for k, n := range size {
		got := pc.paths[k]
		if n > 1 && (got["record"] != 1 || got["replay"] != n-1 || got["live"] != 0) {
			t.Errorf("%s: key %v of %d cells: %d recorded, %d replayed, %d live; want 1, %d, 0", name, k, n, got["record"], got["replay"], got["live"], n-1)
		}
	}
}

// TestStreamsRecordOnceAcrossWorkers: however many workers take a key's
// cells at once, the key is recorded exactly once, and every other cell
// waits for that recording and replays it; none runs live.
func TestStreamsRecordOnceAcrossWorkers(t *testing.T) {
	cells := replaySpace().withDefaults().Enumerate()
	for _, workers := range []int{2, 4} {
		pc := newPathCounts(t, cells)
		if _, err := Run(RunConfig{Space: replaySpace(), Workers: workers}); err != nil {
			t.Fatal(err)
		}
		pc.checkRecordOnce(t, fmt.Sprintf("workers %d", workers))
	}
}

// TestStreamsAbandonedReplays: a watchdog that abandons nearly every cell
// leaves cells recording and replaying in orphan goroutines while the
// sweep moves on. Each key is still recorded once, each cell runs once,
// and every cell — orphans included, which the test waits for — returns
// the live result: no log went back to the free list, to be overwritten by
// the next recording, while an orphan still read it. Under -race an
// overwrite would also be reported as a race.
func TestStreamsAbandonedReplays(t *testing.T) {
	cells := replaySpace().withDefaults().Enumerate()
	want := make([]sim.Result, len(cells))
	for i, p := range cells {
		k, err := p.Workload()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sim.Run(p.SystemConfig(0), k)
	}

	pc := newPathCounts(t, cells)
	c := newStreams(cells, 2)
	var mu sync.Mutex
	got := make([][]sim.Result, len(cells)) // each slot's runs, in the order they returned
	returned := 0
	scells := make([]sweep.Cell, len(cells))
	for slot, p := range cells {
		scells[slot] = sweep.Cell{Kernel: p.Kernel, System: p.Label(), Run: func() (r sim.Result) {
			defer func() { // a panicking run counts with a zero Result
				mu.Lock()
				got[slot] = append(got[slot], r)
				returned++
				mu.Unlock()
			}()
			return c.run(slot, p, p.SystemConfig(0))
		}}
	}
	if _, err := sweep.ForEach(scells, sweep.Options{
		Workers:     2,
		CellTimeout: time.Microsecond,
	}); err == nil {
		t.Fatal("no cell outlived a 1µs watchdog")
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := returned
		mu.Unlock()
		if n == len(cells) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d cells returned within a minute", n, len(cells))
		}
	}

	pc.checkRecordOnce(t, "abandoned")
	for slot, rs := range got {
		if len(rs) != 1 {
			t.Errorf("slot %d ran %d times, want once", slot, len(rs))
		}
		for _, r := range rs {
			if r.Err != nil || r.Cycles != want[slot].Cycles {
				t.Errorf("slot %d: a run returned %d cycles (err %v), live runs %d", slot, r.Cycles, r.Err, want[slot].Cycles)
			}
		}
	}
	for slot, e := range c.cells {
		if e.stream != nil || e.pending != 0 {
			t.Fatalf("slot %d: key left with stream %t, %d pending", slot, e.stream != nil, e.pending)
		}
	}
	if len(c.free) == 0 {
		t.Error("no log went back to the free list")
	}
}
