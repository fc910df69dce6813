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
	once    sync.Once   // the key's first cell records, the others wait
	stream  *sim.Stream // the recording, until the key's last cell returns
	pending int         // cells of the key that have not returned
}

// streams is one Run call's record-once, replay-many cache. The key's
// first cell records the stream if other cells of the key are pending, and
// the others wait for that recording and replay it into their own memory
// systems, without building the kernel's inputs or executing it. Replay's
// Result equals the live one, so the cache changes no simulated byte, only
// the host time.
//
// Once every cell of a key has returned, its log goes back to a free list
// of at most Workers+1 buffers, so recordings stop allocating once the list
// is warm. A cell the CellTimeout watchdog abandoned has not returned: its
// key's log stays off the free list until the orphan finishes reading it.
type streams struct {
	mu      sync.Mutex
	cells   []*streamEntry // each pending cell's key, by sweep slot; read-only
	free    [][]byte
	maxFree int
}

// newStreams sizes the cache for cells, the pending cells in sweep order,
// run by workers.
func newStreams(cells []Params, workers int) *streams {
	c := &streams{
		cells:   make([]*streamEntry, len(cells)),
		maxFree: workers + 1,
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

// run simulates the cell in slot, p, on cfg. It records the key's stream,
// or waits for its recording and replays it, or runs live when no stream
// comes: the key has one cell, or its recording aborted, outgrew
// streamLimit or could not build the kernel.
func (c *streams) run(slot int, p Params, cfg sim.Config) sim.Result {
	e := c.cells[slot]
	defer c.finish(e)
	var res sim.Result
	recorded := false
	e.once.Do(func() {
		// The key's other cells wait in Do, so pending is still its cell
		// count.
		if recorded = e.pending > 1; !recorded {
			return
		}
		streamRan(slot, "record")
		kernel, err := p.Workload()
		if err != nil {
			res = workloadFailed(p, err)
			return
		}
		c.mu.Lock()
		var buf []byte // a log off the free list, if there is one
		if n := len(c.free); n > 0 {
			buf, c.free = c.free[n-1], c.free[:n-1]
		}
		c.mu.Unlock()
		res, e.stream = sim.Record(cfg, kernel, buf, streamLimit)
	})
	switch {
	case recorded:
		return res
	case e.stream != nil:
		streamRan(slot, "replay")
		return sim.Replay(cfg, e.stream)
	}
	streamRan(slot, "live")
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

// streamRan hears the path the cell in slot takes, just before it runs:
// "record", "replay" or "live". Tests set it.
var streamRan = func(slot int, how string) {}

// finish settles a cell of e's key, and returns the key's log to the free
// list once every cell of the key has returned.
func (c *streams) finish(e *streamEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.pending--
	if e.pending == 0 && e.stream != nil {
		if len(c.free) < c.maxFree {
			c.free = append(c.free, e.stream.Bytes()[:0])
		}
		e.stream = nil
	}
}
