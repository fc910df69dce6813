package campaign

import (
	"sync"

	"repro/internal/sim"
)

// streamLimit caps one recorded stream's bytes. A key whose stream grows
// past it runs every cell live. spmv at scale 1024, the longest stream of
// perfbench's explore space, logs about 110 KB. It is a variable only so
// tests can force the live fallback.
var streamLimit = 4 << 20

// streamKey names a cell's functional event stream: without a datapath,
// the events a kernel emits depend only on the kernel, its input (scale
// and seed) and the builder's hardware vector length — never on the
// memory system, so every memory axis of a space shares one stream.
type streamKey struct {
	kernel string
	scale  int
	seed   uint64
	hwvl   int
}

// streamKey is the key of p's stream.
func (p Params) streamKey() streamKey {
	return streamKey{kernel: p.Kernel, scale: p.Scale, seed: p.Seed, hwvl: p.SystemConfig(0).HWVL()}
}

// streamEntry is one key's state within a campaign run.
type streamEntry struct {
	pending   int         // cells of the key that have not yet finished an attempt
	readers   int         // replays in flight
	recording bool        // a cell is recording the stream now
	stream    *sim.Stream // the recording, until the last cell is done with it
	live      bool        // no stream will come: run every remaining cell live
}

// streams is one Run call's record-once, replay-many cache. The first cell
// of a key that other cells still need records its stream; a cell whose
// key is still being recorded runs live rather than wait; every later cell
// replays the recording into its own memory system, without building the
// kernel's inputs or executing it. Replay's Result equals the live one,
// so the cache changes no simulated byte, only the host time.
//
// Once a key's last cell is done, its log goes back to a free list of at
// most Workers+1 buffers, so recordings stop allocating once the list is
// warm.
type streams struct {
	mu        sync.Mutex
	cells     []*streamEntry // each pending cell's key, by sweep slot
	attempted []bool         // the cell in this slot has finished an attempt
	free      [][]byte
	maxFree   int
}

// newStreams sizes the cache for cells, the pending cells in sweep order,
// run by workers.
func newStreams(cells []Params, workers int) *streams {
	c := &streams{
		cells:     make([]*streamEntry, len(cells)),
		attempted: make([]bool, len(cells)),
		maxFree:   workers + 1,
	}
	entries := make(map[streamKey]*streamEntry)
	for slot, p := range cells {
		k := p.streamKey()
		e := entries[k]
		if e == nil {
			e = &streamEntry{}
			entries[k] = e
		}
		e.pending++
		c.cells[slot] = e
	}
	return c
}

// run simulates one attempt of the cell in slot, p, on cfg: it replays the
// key's stream if there is one, records it if other cells of the key still
// need it and nobody is recording it yet, and otherwise runs live. A cell
// stops counting against its key's pending cells at the end of its first
// attempt, however many retries follow.
func (c *streams) run(slot int, p Params, cfg sim.Config) (res sim.Result) {
	c.mu.Lock()
	e := c.cells[slot]
	if st := e.stream; st != nil {
		e.readers++
		c.mu.Unlock()
		defer c.finish(slot, func() { e.readers-- })
		return sim.Replay(cfg, st)
	}
	others := e.pending
	if !c.attempted[slot] {
		others--
	}
	var st *sim.Stream
	if record := !e.recording && !e.live && others > 0; record {
		e.recording = true
		buf := c.take()
		c.mu.Unlock()
		defer c.finish(slot, func() {
			e.recording = false
			e.stream = st
			e.live = st == nil
		})
		kernel, err := p.Workload()
		if err != nil {
			return workloadFailed(p, err)
		}
		res, st = sim.Record(cfg, kernel, buf, streamLimit)
		return res
	}
	c.mu.Unlock()
	defer c.finish(slot, func() {})
	kernel, err := p.Workload()
	if err != nil {
		return workloadFailed(p, err)
	}
	return sim.Run(cfg, kernel)
}

// workloadFailed is the result of a cell whose kernel cannot be built.
// Validate already vetted the family, so this is a registry bug, not a
// cell condition.
func workloadFailed(p Params, err error) sim.Result {
	return sim.Result{Kernel: p.Kernel, System: p.Label(), Err: err}
}

// finish settles one attempt of the cell in slot under the cache's lock:
// it applies update to the key's entry, counts the cell's first attempt
// against the key, and returns the key's log to the free list once no
// cell needs it and no replay reads it.
func (c *streams) finish(slot int, update func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	update()
	e := c.cells[slot]
	if !c.attempted[slot] {
		c.attempted[slot] = true
		e.pending--
	}
	if e.pending == 0 && e.readers == 0 && e.stream != nil {
		if len(c.free) < c.maxFree {
			c.free = append(c.free, e.stream.Bytes()[:0])
		}
		e.stream, e.live = nil, true
	}
}

// take pops a buffer off the free list, or returns nil when it is empty.
func (c *streams) take() []byte {
	n := len(c.free)
	if n == 0 {
		return nil
	}
	buf := c.free[n-1]
	c.free = c.free[:n-1]
	return buf
}
