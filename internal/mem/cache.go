package mem

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/probe"
)

// LineBytes is the cache line size used throughout the hierarchy.
const LineBytes = 64

// Result describes the outcome of a timed memory access.
type Result struct {
	// Accepted is when the level actually took the request — later than the
	// request time if MSHRs or banks were exhausted (the stall Fig 8 plots).
	Accepted int64
	// Done is when the data is available to the requester.
	Done int64
}

// Level is a component that can serve timed line-granular accesses.
type Level interface {
	// Access requests the line containing addr at time t. write marks the
	// intent (write-allocate policy; dirty state tracking).
	Access(addr uint64, write bool, t int64) Result
	// Name identifies the level in statistics.
	Name() string
}

// CacheConfig parameterizes one cache level (Table III).
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	Banks      int
	HitLatency int64
	MSHRs      int
}

// CacheStats counts cache activity.
type CacheStats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Writebacks  uint64
	MSHRStall   int64 // cycles requests spent waiting for an MSHR
	BankStall   int64 // cycles requests spent waiting for a bank
	MergedMiss  uint64
	Invalidates uint64
}

// line is one way of a set: its tag word, its LRU stamp, and the
// completion time of the outstanding miss that installed it. The tag word
// is the tag shifted left by tagShift with the state flags in the low bits,
// so a line stays 24 bytes with its outstanding-miss entry beside it.
type line struct {
	word uint64 // tag<<tagShift | lineValid | lineDirty | linePending
	lru  uint64
	pend int64 // the line's outstanding-miss completion time, while linePending is set
}

// Tag-word flags.
const (
	lineValid   = 1 << iota // the way holds a line
	lineDirty               // the line was written since it was installed
	linePending             // pend is the line's outstanding-miss entry
	tagShift    = iota

	// keyMask keeps the tag and the valid flag: a way holds line tag iff
	// word&keyMask == tag<<tagShift|lineValid.
	keyMask = ^uint64(lineDirty | linePending)
)

// tag returns the line's tag.
func (l *line) tag() uint64 { return l.word >> tagShift }

// pageShift sizes a page of tag storage: 1<<pageShift consecutive sets,
// allocated together the first time a line is installed in any of them.
// Sixteen sets keep a Table III LLC page at 6 KiB, so a small run pays for
// a few pages instead of the 768 KiB line array, while the page table
// itself stays a few hundred bytes.
const pageShift = 4

// pageMask selects a set's position within its page.
const pageMask = 1<<pageShift - 1

// maxOutstanding bounds a cache's outstanding-miss entries: past it, every
// entry whose fill completed by the current miss's issue time is dropped.
const maxOutstanding = 4096

// freePages is the process's free list of tag pages, one list per page
// length (the L1D, L2 and LLC pages of a geometry differ). A hierarchy's
// caches return their pages when its System finishes (Release) and touch
// takes one back on first touch of a set, zeroing it there, so a campaign
// of many cells allocates tag storage once per concurrently live page
// rather than once per cell.
var freePages = struct {
	mu    sync.Mutex
	byLen map[int][][]line
}{byLen: make(map[int][][]line)}

// takePage returns a zeroed page of n lines, reusing a released one when
// the free list holds one of that length.
func takePage(n int) []line {
	freePages.mu.Lock()
	list := freePages.byLen[n]
	var p []line
	if k := len(list); k > 0 {
		p = list[k-1]
		list[k-1] = nil // a run that aborts never releases p; do not pin it here
		// A page comes back zeroed below, so which cell released it cannot
		// reach a simulated result.
		//evelint:allow simpurity -- free list of zeroed storage; TestPageReuseIsPure
		freePages.byLen[n] = list[:k-1]
	}
	freePages.mu.Unlock()
	if p == nil {
		//evelint:allow hotalloc -- first touch with an empty free list: each page is allocated once per concurrently live page of its length
		return make([]line, n)
	}
	clear(p)
	return p
}

// releaseHeap is a min-heap of busy-resource release times. It implements
// push/pop directly on int64 rather than through container/heap, whose
// interface{}-typed Push would box every release time on the access path.
type releaseHeap []int64

// push adds a release time, sifting it up to its heap position.
func (h *releaseHeap) push(v int64) {
	//evelint:allow hotalloc -- amortized: the backing array grows to the MSHR pool size once, then reuses
	*h = append(*h, v)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest release time.
func (h *releaseHeap) pop() int64 {
	s := *h
	earliest := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && s[l] < s[small] {
			small = l
		}
		if r := 2*i + 2; r < n && s[r] < s[small] {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return earliest
}

// Cache is one timed cache level: set-associative tags with LRU, per-bank
// occupancy, and a bounded pool of MSHRs tracking outstanding misses.
// Secondary misses to an outstanding line merge instead of consuming a new
// MSHR.
type Cache struct {
	cfg CacheConfig
	// pages holds the tag storage, set-major within each page: set s is
	// pages[s>>pageShift][(s&pageMask)*Ways:][:Ways]. A nil page holds only
	// invalid lines; install takes it from the free list on first touch,
	// and every other reader treats it as all-invalid without allocating.
	// Release returns the pages and leaves pages nil.
	pages     [][]line
	pageLines int // lines per page: min(nsets, 1<<pageShift) * Ways
	nsets     int
	banks     []int64
	mshrs     releaseHeap
	// Outstanding-miss entries (line address -> completion time of the miss
	// that fetched it) live with their lines: a resident line's entry is its
	// pend. stale holds the entries of lines that left the cache, by
	// eviction or partition, until a miss merges into one or the
	// maxOutstanding sweep drops it. pending counts the resident entries.
	stale   map[uint64]int64
	pending int
	lower   Level
	clock   uint64 // LRU tick
	stats   CacheStats

	// partition restricts allocation to the first partitionWays ways when
	// nonzero (EVE way-partitioning, §V-E).
	partitionWays int

	tr probe.Emitter
}

// SetTracer attaches a per-run event tracer; the cache traces under its
// lower-cased level name ("l1d", "l2", "llc").
func (c *Cache) SetTracer(tr probe.Tracer) {
	c.tr = probe.NewEmitter(tr, strings.ToLower(c.cfg.Name))
}

// ProbeStats implements probe.Source, publishing the level's counters into
// the hierarchical registry.
func (c *Cache) ProbeStats(s *probe.Scope) {
	st := c.stats
	s.CounterU("accesses", st.Accesses)
	s.CounterU("hits", st.Hits)
	s.CounterU("misses", st.Misses)
	rate := 0.0
	if st.Accesses > 0 {
		rate = float64(st.Misses) / float64(st.Accesses)
	}
	s.Float("miss_rate", rate)
	s.CounterU("writebacks", st.Writebacks)
	s.CounterU("merged_misses", st.MergedMiss)
	s.CounterU("invalidates", st.Invalidates)
	s.Counter("mshr.stall_cycles", st.MSHRStall)
	s.Counter("bank.stall_cycles", st.BankStall)
}

// NewCache builds a cache over the given lower level.
func NewCache(cfg CacheConfig, lower Level) *Cache {
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("mem: %s has %d ways; must be positive", cfg.Name, cfg.Ways))
	}
	nsets := cfg.SizeBytes / (LineBytes * cfg.Ways)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("mem: %s has %d sets; must be a positive power of two", cfg.Name, nsets))
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	pageSets := min(nsets, 1<<pageShift)
	return &Cache{
		cfg:       cfg,
		nsets:     nsets,
		pages:     make([][]line, nsets/pageSets),
		pageLines: pageSets * cfg.Ways,
		banks:     make([]int64, cfg.Banks),
		stale:     make(map[uint64]int64),
		lower:     lower,
	}
}

// Name identifies the cache.
func (c *Cache) Name() string { return c.cfg.Name }

// Ways reports the cache's configured associativity (ignoring any active
// partition), so callers holding only the built cache — a hierarchy whose
// geometry was overridden per cell, say — can reason about way splits
// without reaching for the package-level Table III configs.
func (c *Cache) Ways() int { return c.cfg.Ways }

// ActiveWays reports the associativity currently available to the
// replacement policy: the partition size while an EVE owns the rest,
// the configured Ways otherwise.
func (c *Cache) ActiveWays() int { return c.ways() }

// ProbeGauges implements probe.GaugeSource: the level's instantaneous state
// per window — live associativity (it shrinks while an EVE owns ways) and
// how many MSHRs are still tracking in-flight misses at cycle now.
func (c *Cache) ProbeGauges(s *probe.Scope, now int64) {
	s.Counter("ways_active", int64(c.ways()))
	var busy int64
	for _, release := range c.mshrs {
		if release > now {
			busy++
		}
	}
	s.Counter("mshr.occupancy", busy)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// ResetStats zeroes the counters (tags and timing state are kept).
func (c *Cache) ResetStats() { c.stats = CacheStats{} }

func (c *Cache) index(lineAddr uint64) (set int, tag uint64) {
	return int(lineAddr % uint64(c.nsets)), lineAddr / uint64(c.nsets)
}

// set returns the active ways of set s (the partition while an EVE owns
// the rest), or nil while s's page is untouched (every line invalid).
func (c *Cache) set(s int) []line {
	c.live()
	p := c.pages[s>>pageShift]
	if p == nil {
		return nil
	}
	off := (s & pageMask) * c.cfg.Ways
	return p[off : off+c.ways()]
}

// touch returns the active ways of set s like set, taking its page from the
// free list on first touch.
func (c *Cache) touch(s int) []line {
	c.live()
	p := &c.pages[s>>pageShift]
	if *p == nil {
		*p = takePage(c.pageLines)
	}
	off := (s & pageMask) * c.cfg.Ways
	return (*p)[off : off+c.ways()]
}

// live panics once Release has handed the cache's pages on: reading them
// then would read another cell's lines.
func (c *Cache) live() {
	if c.pages == nil {
		panic(fmt.Sprintf("mem: %s used after Release", c.cfg.Name))
	}
}

// Release returns the cache's tag pages to the process's free list; the
// cache must not be used afterwards, and panics if it is. Only the page
// table is walked, never a line: a page is zeroed when touch takes it.
func (c *Cache) Release() {
	c.live()
	freePages.mu.Lock()
	list := freePages.byLen[c.pageLines]
	for _, p := range c.pages {
		if p != nil {
			list = append(list, p)
		}
	}
	//evelint:allow simpurity -- free list of zeroed storage; TestPageReuseIsPure
	freePages.byLen[c.pageLines] = list
	freePages.mu.Unlock()
	c.pages = nil
}

func (c *Cache) ways() int {
	if c.partitionWays > 0 {
		return c.partitionWays
	}
	return c.cfg.Ways
}

// Access implements Level.
func (c *Cache) Access(addr uint64, write bool, t int64) Result {
	c.stats.Accesses++
	lineAddr := addr / LineBytes
	set, tag := c.index(lineAddr)

	// Bank arbitration: each access occupies its bank for one cycle.
	// Requests from decoupled units arrive with out-of-order timestamps, so
	// a conflict is only honored within a small window — otherwise a
	// future-timestamped access would falsely block much earlier ones.
	const bankWindow = 4
	b := int(lineAddr) % len(c.banks)
	start := t
	if c.banks[b] > start && c.banks[b]-start <= bankWindow {
		c.stats.BankStall += c.banks[b] - start
		c.tr.Span(probe.KStall, "bank", start, c.banks[b])
		start = c.banks[b]
	}
	if start+1 > c.banks[b] {
		c.banks[b] = start + 1
	}

	ls := c.set(set)
	c.clock++
	key := tag<<tagShift | lineValid
	for i := range ls {
		l := &ls[i]
		if l.word&keyMask != key {
			continue
		}
		c.stats.Hits++
		l.lru = c.clock
		if write {
			l.word |= lineDirty
		}
		done := start + c.cfg.HitLatency
		// A line installed by an in-flight miss is not actually present
		// until its fill completes; late hits wait for it.
		if l.word&linePending != 0 {
			if l.pend > done {
				done = l.pend
			} else {
				l.word &^= linePending
				c.pending--
			}
		}
		c.tr.SpanAddr(probe.KAccess, "hit", start, done, lineAddr*LineBytes)
		return Result{Accepted: start, Done: done}
	}

	// Miss. Merge with an outstanding request to the same line if any: the
	// line is absent, so its entry, if it has one, is in stale.
	c.stats.Misses++
	if done, ok := c.stale[lineAddr]; ok {
		c.stats.MergedMiss++
		if done < start+c.cfg.HitLatency {
			done = start + c.cfg.HitLatency
		}
		c.tr.SpanAddr(probe.KAccess, "merged_miss", start, done, lineAddr*LineBytes)
		return Result{Accepted: start, Done: done}
	}

	// Write misses allocate without fetching: cache-line-granular writers
	// (vector store drains, writebacks from above) overwrite the whole line,
	// so no read of the lower level is needed — the bandwidth is charged
	// when the dirty line eventually writes back.
	if write {
		c.install(set, tag, lineDirty, start, 0)
		c.tr.SpanAddr(probe.KAccess, "write_alloc", start, start+c.cfg.HitLatency, lineAddr*LineBytes)
		return Result{Accepted: start, Done: start + c.cfg.HitLatency}
	}

	// Acquire an MSHR, stalling until one frees if the pool is full.
	issue := start
	for len(c.mshrs) > 0 && c.mshrs[0] <= issue {
		c.mshrs.pop()
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		free := c.mshrs[0]
		c.stats.MSHRStall += free - issue
		c.tr.Span(probe.KStall, "mshr", issue, free)
		issue = free
		for len(c.mshrs) > 0 && c.mshrs[0] <= issue {
			c.mshrs.pop()
		}
	}

	lower := c.lower.Access(addr, false, issue+c.cfg.HitLatency)
	done := lower.Done + c.cfg.HitLatency
	c.mshrs.push(done)
	// The tag is installed now but marked outstanding until the fill
	// completes, so accesses arriving before `done` wait for it. Entries are
	// cleaned lazily on later hits, with a size-bounded sweep as backstop.
	c.install(set, tag, linePending, done, done)
	if c.pending+len(c.stale) > maxOutstanding {
		c.sweep(issue)
	}
	c.tr.SpanAddr(probe.KAccess, "miss", start, done, lineAddr*LineBytes)
	return Result{Accepted: issue, Done: done}
}

// install places a line with the given dirty and pending flags (pend is
// its outstanding-miss entry when linePending is set), evicting the LRU
// victim: writing it back if dirty and keeping its outstanding-miss entry
// in stale. The installed line never has an entry there already: a miss to
// a line with one merges instead of installing.
func (c *Cache) install(set int, tag uint64, flags uint64, t, pend int64) {
	ls := c.touch(set)
	victim := 0
	for i := range ls {
		if ls[i].word&lineValid == 0 {
			victim = i
			break
		}
		if ls[i].lru < ls[victim].lru {
			victim = i
		}
	}
	if v := &ls[victim]; v.word&lineValid != 0 {
		victimLine := v.tag()*uint64(c.nsets) + uint64(set)
		if v.word&lineDirty != 0 {
			c.stats.Writebacks++
			if c.tr.On() {
				c.tr.Emit(probe.Event{Kind: probe.KWriteback, Name: "writeback",
					Begin: t, End: t, Addr: victimLine * LineBytes})
			}
			c.lower.Access(victimLine*LineBytes, true, t)
		}
		c.spill(v, victimLine)
	}
	ls[victim] = line{word: tag<<tagShift | lineValid | flags, lru: c.clock, pend: pend}
	if flags&linePending != 0 {
		c.pending++
	}
}

// spill moves the outstanding-miss entry of l, which holds line lineAddr
// and is about to be evicted or invalidated, into stale.
func (c *Cache) spill(l *line, lineAddr uint64) {
	if l.word&linePending != 0 {
		c.stale[lineAddr] = l.pend
		c.pending--
	}
}

// sweep drops every outstanding-miss entry, resident or stale, whose fill
// completed by issue.
func (c *Cache) sweep(issue int64) {
	for k, v := range c.stale {
		if v <= issue {
			delete(c.stale, k)
		}
	}
	for _, p := range c.pages {
		for i := range p {
			if l := &p[i]; l.word&linePending != 0 && l.pend <= issue {
				l.word &^= linePending
				c.pending--
			}
		}
	}
}

// Partition restricts the cache to its first `ways` ways, invalidating lines
// in the released ways and reporting how many were dirty — the reconfiguration
// that spawns EVE (§V-E). Pass cfg.Ways (or 0) to restore full associativity;
// restored ways come back invalid, also per §V-E.
func (c *Cache) Partition(ways int) (invalidated, dirty int) {
	if ways <= 0 || ways > c.cfg.Ways {
		ways = c.cfg.Ways
	}
	c.live()
	for pi, p := range c.pages {
		for base := 0; base < len(p); base += c.cfg.Ways {
			set := pi<<pageShift + base/c.cfg.Ways
			for w := ways; w < c.cfg.Ways; w++ {
				l := &p[base+w]
				if l.word&lineValid != 0 {
					invalidated++
					if l.word&lineDirty != 0 {
						dirty++
					}
					c.stats.Invalidates++
					c.spill(l, l.tag()*uint64(c.nsets)+uint64(set))
				}
				*l = line{}
			}
		}
	}
	c.partitionWays = ways
	return invalidated, dirty
}

// Contains reports whether the line holding addr is resident (testing aid).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr / LineBytes
	set, tag := c.index(lineAddr)
	key := tag<<tagShift | lineValid
	for _, l := range c.set(set) {
		if l.word&keyMask == key {
			return true
		}
	}
	return false
}
