package mem_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestPageReuseIsPure is the purity argument for the process-wide free
// list of tag pages. A cell run fresh, on newly allocated pages, and run
// again after cells whose other geometries share its page lengths — so it
// takes pages that held their lines — must give a deep-equal Result. The
// second run must allocate no tag page: it takes every page from the free
// list and returns the same number, and it makes at least one allocation
// per page fewer than the fresh run did.
func TestPageReuseIsPure(t *testing.T) {
	cell := sim.Config{Kind: sim.SysO3EVE, N: 8}
	k := workloads.NewVVAdd(1 << 12)
	// Other geometries, same page lengths: 16 sets or more per level and
	// Table III's ways. They dirty the pages with another kernel's lines.
	others := []sim.Config{
		{Kind: sim.SysO3DV, Mem: &sim.MemParams{
			L1D: mem.CacheConfig{SizeBytes: 16 << 10, Ways: 4, Banks: 1, HitLatency: 2, MSHRs: 16},
			L2:  mem.CacheConfig{SizeBytes: 256 << 10, Ways: 8, Banks: 8, HitLatency: 8, MSHRs: 32},
			LLC: mem.CacheConfig{SizeBytes: 1 << 20, Ways: 16, Banks: 8, HitLatency: 12, MSHRs: 32}}},
		{Kind: sim.SysO3EVE, N: 4, Mem: &sim.MemParams{
			L2:  mem.CacheConfig{SizeBytes: 1 << 20, Ways: 8, Banks: 4, HitLatency: 8, MSHRs: 8},
			LLC: mem.CacheConfig{SizeBytes: 4 << 20, Ways: 16, Banks: 8, HitLatency: 12, MSHRs: 32}}},
	}
	lengths := []int{mem.PageLines(mem.L1DConfig), mem.PageLines(mem.L2Config), mem.PageLines(mem.LLCConfig)}
	for _, o := range others {
		for i, c := range []mem.CacheConfig{o.Mem.L1D, o.Mem.L2, o.Mem.LLC} {
			if c != (mem.CacheConfig{}) && mem.PageLines(c) != lengths[i] {
				t.Fatalf("%+v: page of %d lines, cell's is %d", c, mem.PageLines(c), lengths[i])
			}
		}
	}
	free := func() (n []int) {
		for _, l := range lengths {
			n = append(n, mem.FreePages(l))
		}
		return n
	}
	run := func(cfg sim.Config, k *workloads.Kernel) sim.Result {
		r := sim.Run(cfg, k)
		if r.Err != nil {
			t.Fatalf("%s: %v", cfg.Name(), r.Err)
		}
		return r
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	mem.DrainFreePages()
	want := run(cell, k)
	runtime.ReadMemStats(&ms)
	fresh := ms.Mallocs - mallocs
	pages := 0
	for _, n := range free() {
		pages += n
	}
	if pages == 0 {
		t.Fatal("the fresh run returned no pages")
	}

	km := workloads.NewKMeans(256, 8, 3)
	for _, o := range others {
		run(o, km)
	}
	before := free()
	if got := run(cell, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("run on reused pages diverges:\n got  %+v\n want %+v", got, want)
	}
	if after := free(); !reflect.DeepEqual(after, before) {
		t.Errorf("free pages per length %v before the second run, %v after: it allocated pages", before, after)
	}
	steady := testing.AllocsPerRun(3, func() { run(cell, k) })
	if steady > float64(fresh)-float64(pages) {
		t.Errorf("a run on reused pages made %.0f allocations, the fresh run %d with %d pages", steady, fresh, pages)
	}
	t.Logf("%d pages; fresh run %d allocations, reused %.0f", pages, fresh, steady)
}

// TestCacheUseAfterFinishPanics: Finish hands a system's tag pages on, so
// driving the system afterwards must fail loudly, not read lines another
// cell has since written.
func TestCacheUseAfterFinishPanics(t *testing.T) {
	s := sim.NewSystem(sim.Config{Kind: sim.SysO3}, 1<<20)
	b := s.Builder()
	addr := b.Mem.AllocU32(16)
	b.ScalarLoad(addr)
	s.Finish()
	defer func() {
		p := recover()
		if msg, _ := p.(string); !strings.Contains(msg, "used after Release") {
			t.Fatalf("scalar load after Finish: recovered %v, want a used-after-Release panic", p)
		}
	}()
	b.ScalarLoad(addr)
}
