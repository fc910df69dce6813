package campaign

import (
	"bytes"
	"testing"
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
// four workers, with interval sampling on, and with retries.
func TestRunReplayMatchesLive(t *testing.T) {
	want := liveReport(t, RunConfig{Space: replaySpace(), Workers: 1})
	for _, cfg := range []RunConfig{
		{Space: replaySpace(), Workers: 1},
		{Space: replaySpace(), Workers: 4},
		{Space: replaySpace(), Workers: 2, Interval: 1000, Retries: 1},
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
		case i < 7 && (first.stream == nil || first.readers != 0):
			t.Fatalf("cell %d: stream %v, readers %d; want the stream kept, no reader left", i, first.stream != nil, first.readers)
		}
	}
	if first.stream != nil || !first.live || len(c.free) != 1 {
		t.Fatalf("after the last cell: stream kept %t, live %t, %d free buffers; want the log on the free list", first.stream != nil, first.live, len(c.free))
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
