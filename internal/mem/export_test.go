package mem

import "fmt"

// eagerLine is the oracle's line, in the layout Cache used before its
// flags were packed into the tag word and its outstanding-miss entry moved
// beside it.
type eagerLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// eagerCache is the paged Cache's storage oracle: the cache as it was
// before pages, with its tags in one set-major line array allocated at
// construction (set s at lines[s*Ways:(s+1)*Ways]) and every
// outstanding-miss entry, resident line or not, in one map. Its bank and
// MSHR timing is the Cache's, copied without tracing, so FuzzCacheStorage
// and TestOutstandingMissesAtScale can compare the two access by access.
type eagerCache struct {
	cfg           CacheConfig
	lines         []eagerLine
	nsets         int
	banks         []int64
	mshrs         releaseHeap
	outstanding   map[uint64]int64
	lower         Level
	clock         uint64
	stats         CacheStats
	partitionWays int
}

func newEagerCache(cfg CacheConfig, lower Level) *eagerCache {
	c := NewCache(cfg, lower) // validates the geometry and defaults Banks
	return &eagerCache{
		cfg:         c.cfg,
		nsets:       c.nsets,
		lines:       make([]eagerLine, c.nsets*c.cfg.Ways),
		banks:       make([]int64, c.cfg.Banks),
		outstanding: make(map[uint64]int64),
		lower:       lower,
	}
}

func (c *eagerCache) set(s int) []eagerLine {
	w := c.cfg.Ways
	return c.lines[s*w : (s+1)*w]
}

func (c *eagerCache) ways() int {
	if c.partitionWays > 0 {
		return c.partitionWays
	}
	return c.cfg.Ways
}

func (c *eagerCache) Access(addr uint64, write bool, t int64) Result {
	c.stats.Accesses++
	lineAddr := addr / LineBytes
	set, tag := int(lineAddr%uint64(c.nsets)), lineAddr/uint64(c.nsets)

	const bankWindow = 4
	b := int(lineAddr) % len(c.banks)
	start := t
	if c.banks[b] > start && c.banks[b]-start <= bankWindow {
		c.stats.BankStall += c.banks[b] - start
		start = c.banks[b]
	}
	if start+1 > c.banks[b] {
		c.banks[b] = start + 1
	}

	ls := c.set(set)[:c.ways()]
	c.clock++
	for i := range ls {
		if ls[i].valid && ls[i].tag == tag {
			c.stats.Hits++
			ls[i].lru = c.clock
			if write {
				ls[i].dirty = true
			}
			done := start + c.cfg.HitLatency
			if pend, ok := c.outstanding[lineAddr]; ok {
				if pend > done {
					done = pend
				} else {
					delete(c.outstanding, lineAddr)
				}
			}
			return Result{Accepted: start, Done: done}
		}
	}

	c.stats.Misses++
	if done, ok := c.outstanding[lineAddr]; ok {
		c.stats.MergedMiss++
		if done < start+c.cfg.HitLatency {
			done = start + c.cfg.HitLatency
		}
		return Result{Accepted: start, Done: done}
	}
	if write {
		c.install(set, tag, true, start)
		return Result{Accepted: start, Done: start + c.cfg.HitLatency}
	}

	issue := start
	for len(c.mshrs) > 0 && c.mshrs[0] <= issue {
		c.mshrs.pop()
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		free := c.mshrs[0]
		c.stats.MSHRStall += free - issue
		issue = free
		for len(c.mshrs) > 0 && c.mshrs[0] <= issue {
			c.mshrs.pop()
		}
	}
	lower := c.lower.Access(addr, false, issue+c.cfg.HitLatency)
	done := lower.Done + c.cfg.HitLatency
	c.mshrs.push(done)
	c.outstanding[lineAddr] = done
	if len(c.outstanding) > 4096 {
		for k, v := range c.outstanding {
			if v <= issue {
				delete(c.outstanding, k)
			}
		}
	}
	c.install(set, tag, write, done)
	return Result{Accepted: issue, Done: done}
}

func (c *eagerCache) install(set int, tag uint64, dirty bool, t int64) {
	ls := c.set(set)[:c.ways()]
	victim := 0
	for i := range ls {
		if !ls[i].valid {
			victim = i
			break
		}
		if ls[i].lru < ls[victim].lru {
			victim = i
		}
	}
	if ls[victim].valid && ls[victim].dirty {
		c.stats.Writebacks++
		victimLine := ls[victim].tag*uint64(c.nsets) + uint64(set)
		c.lower.Access(victimLine*LineBytes, true, t)
	}
	ls[victim] = eagerLine{tag: tag, valid: true, dirty: dirty, lru: c.clock}
}

func (c *eagerCache) Partition(ways int) (invalidated, dirty int) {
	if ways <= 0 || ways > c.cfg.Ways {
		ways = c.cfg.Ways
	}
	for s := 0; s < c.nsets; s++ {
		ls := c.set(s)
		for w := ways; w < c.cfg.Ways; w++ {
			l := &ls[w]
			if l.valid {
				invalidated++
				if l.dirty {
					dirty++
				}
				c.stats.Invalidates++
			}
			*l = eagerLine{}
		}
	}
	c.partitionWays = ways
	return invalidated, dirty
}

func (c *eagerCache) Contains(addr uint64) bool {
	lineAddr := addr / LineBytes
	set, tag := int(lineAddr%uint64(c.nsets)), lineAddr/uint64(c.nsets)
	for _, l := range c.set(set)[:c.ways()] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// storedSet returns set s's configured ways, partitioned-away ones
// included, as c's pages hold them, in the oracle's layout: nil while its
// page is untouched.
func (c *Cache) storedSet(s int) []eagerLine {
	p := c.pages[s>>pageShift]
	if p == nil {
		return nil
	}
	w := c.cfg.Ways
	out := make([]eagerLine, w)
	for i, l := range p[(s&pageMask)*w:][:w] {
		out[i] = eagerLine{tag: l.tag(), valid: l.word&lineValid != 0,
			dirty: l.word&lineDirty != 0, lru: l.lru}
	}
	return out
}

// outstandingEntries returns every outstanding-miss entry of c, the
// resident lines' and the stale ones, as the oracle's one map would hold
// them. It fails on a stale entry for a resident line, on a pending flag
// on an invalid line, and on a resident count that disagrees with the
// lines.
func (c *Cache) outstandingEntries() (map[uint64]int64, error) {
	m := make(map[uint64]int64, len(c.stale)+c.pending)
	for k, v := range c.stale {
		if c.Contains(k * LineBytes) {
			return nil, fmt.Errorf("resident line %#x has a stale entry", k)
		}
		m[k] = v
	}
	resident := 0
	for pi, p := range c.pages {
		for i, l := range p {
			if l.word&linePending == 0 {
				continue
			}
			set := pi<<pageShift + i/c.cfg.Ways
			lineAddr := l.tag()*uint64(c.nsets) + uint64(set)
			if l.word&lineValid == 0 {
				return nil, fmt.Errorf("invalid way %d of set %d holds an outstanding entry", i%c.cfg.Ways, set)
			}
			m[lineAddr] = l.pend
			resident++
		}
	}
	if resident != c.pending {
		return nil, fmt.Errorf("%d resident entries, pending counts %d", resident, c.pending)
	}
	return m, nil
}

// materialized counts the pages a cache has allocated.
func (c *Cache) materialized() int {
	n := 0
	for _, p := range c.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// FreePages reports how many released pages of n lines the process's free
// list holds.
func FreePages(n int) int {
	freePages.mu.Lock()
	defer freePages.mu.Unlock()
	return len(freePages.byLen[n])
}

// DrainFreePages empties the free list, so the next pages taken are
// allocated.
func DrainFreePages() {
	freePages.mu.Lock()
	defer freePages.mu.Unlock()
	clear(freePages.byLen)
}

// PageLines reports the length of a cache page of geometry cfg.
func PageLines(cfg CacheConfig) int { return NewCache(cfg, nil).pageLines }
