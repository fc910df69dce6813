// Package workloads implements the benchmark kernel suite: the seven
// kernels of Table IV — vvadd and mmult (kernels), k-means, pathfinder and
// backprop (Rodinia), jacobi-2d (RiVEC) and sw (genomics) — plus three
// RiVEC-breadth extensions beyond the paper: spmv (CSR sparse
// matrix–vector, gather-heavy), streamcluster-dist (the streamcluster
// distance/assign phase, mask-dominated) and redux (a blocked
// reduction-tree sum/max). Each kernel exists in two forms sharing one
// source of truth: a scalar implementation emitting the scalar dynamic
// trace, and a vectorized implementation written against the RVV-subset
// builder, strip-mined so the same code adapts to any hardware vector
// length. Every kernel returns a checker validating the simulated machine's
// memory against a pure-Go reference.
//
// Inputs are scaled from the paper's sizes to keep simulation turnaround in
// seconds; the scaling is recorded in EXPERIMENTS.md. The *structure* of
// each kernel — instruction mix, stride pathologies, predication — follows
// Table IV's characterization.
package workloads

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// CheckFunc validates kernel output after a run.
type CheckFunc func() error

// Kernel is one benchmark: Run executes either the scalar or the vectorized
// implementation against the builder (allocating and initializing its own
// inputs in the builder's memory) and returns an output checker.
//
// Run implementations must be reentrant: one *Kernel is shared by every
// system column of a sweep, and the parallel runner (internal/sweep)
// invokes Run for different systems concurrently. All mutable state — the
// input RNG, reference outputs, allocation cursors — therefore lives in
// the per-call builder or in locals of the Run invocation, never in the
// closure or in package-level variables.
type Kernel struct {
	Name  string
	Suite string // k = kernel, ro = rodinia, rv = RiVEC, g = genomics
	Input string // human-readable input description
	Run   func(b *isa.Builder, vector bool) CheckFunc
}

// InGeomean reports whether the kernel belongs to the paper's geomean set
// ({k-means, pathfinder, jacobi-2d, backprop, sw}, Table IV note). The
// post-paper kernels (spmv, streamcluster-dist, redux) are deliberately
// excluded: the geomean reproduces the paper's published figure, and mixing
// in workloads the paper never measured would silently change what that
// number means. Their results appear as ordinary rows in every table.
func (k *Kernel) InGeomean() bool {
	switch k.Name {
	case "k-means", "pathfinder", "jacobi-2d", "backprop", "sw":
		return true
	}
	return false
}

// Default returns the benchmark suite at the standard scaled sizes. The
// scaling preserves each kernel's memory-system character: backprop's weight
// matrix (4 MB) and k-means' point set (~2.2 MB) exceed the 2 MB LLC, so
// their per-element strided traffic misses like the paper's full-size runs.
func Default() []*Kernel {
	return []*Kernel{
		NewVVAdd(1 << 16),
		NewMMult(40, 40, 2048),
		NewKMeans(16384, 34, 5),
		NewPathfinder(10, 1<<15),
		NewJacobi2D(256, 4),
		NewBackprop(65536, 16),
		NewSW(1024),
		NewSpMV(2048, 1<<16, 16),
		NewStreamclusterDist(16000, 8, 8),
		NewRedux(250000),
	}
}

// Small returns reduced-size kernels for fast tests. The new kernels'
// sizes deliberately avoid vector-length multiples (spmv's per-row nnz
// varies, streamcluster's 200 and redux's 1000 are not multiples of 64),
// so strip-mining tails are exercised on every CI run.
func Small() []*Kernel {
	return []*Kernel{
		NewVVAdd(1 << 10),
		NewMMult(8, 8, 64),
		NewKMeans(256, 8, 3),
		NewPathfinder(4, 1<<10),
		NewJacobi2D(32, 2),
		NewBackprop(128, 32),
		NewSW(48),
		NewSpMV(48, 512, 16),
		NewStreamclusterDist(200, 4, 4),
		NewRedux(1000),
	}
}

// ByName finds a kernel in a slice.
func ByName(ks []*Kernel, name string) (*Kernel, error) {
	for _, k := range ks {
		if k.Name == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown kernel %q", name)
}

// Select resolves a comma-separated subset of kernel names against the
// suite, in the order given, or the whole suite for an empty selector.
func Select(suite []*Kernel, csv string) ([]*Kernel, error) {
	if csv == "" {
		return suite, nil
	}
	var out []*Kernel
	for _, name := range strings.Split(csv, ",") {
		k, err := ByName(suite, strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// checkU32 compares a simulated memory region against a reference slice.
func checkU32(b *isa.Builder, name string, base uint64, want []uint32) error {
	for i, w := range want {
		if got := b.Mem.LoadU32(base + uint64(4*i)); got != w {
			return fmt.Errorf("%s: element %d = %#x, want %#x", name, i, got, w)
		}
	}
	return nil
}

// lcg is a tiny deterministic generator for input data (keeps kernels
// reproducible without importing math/rand everywhere).
type lcg uint64

// mixSeed derives a kernel's input generator from its canonical per-kernel
// base constant and a caller-supplied seed. Seed 0 selects the canonical
// inputs — the exact streams the Table IV suite, the checked-in goldens and
// bench/baseline.json are pinned to — while any other seed folds into the
// base so the differential harness and fuzzers can re-randomize inputs
// without perturbing the published numbers.
func mixSeed(base, seed uint64) lcg {
	if seed == 0 {
		return lcg(base)
	}
	return lcg(base ^ seed*0x9E3779B97F4A7C15)
}

// reduceVL re-establishes the vector length a cross-strip reduction must
// cover. A strip-mined loop that accumulates into a register leaves live
// partials in min(elems, HWVL) lanes, but the final strip's SetVL may have
// shrunk the active length to the tail — folding at that length silently
// drops every lane beyond it. Emits a vsetvl only when the current length
// is wrong, so kernels whose trip counts divide the vector length keep
// their exact historical instruction streams.
func reduceVL(b *isa.Builder, elems int) {
	if covered := min(elems, b.HWVL()); b.VL() != covered {
		b.SetVL(covered)
	}
}

func (l *lcg) next() uint32 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint32(*l >> 33)
}

// nextSmall returns a small value in [0, m), keeping integer kernels far
// from overflow so scalar and vector semantics agree trivially.
func (l *lcg) nextSmall(m uint32) uint32 { return l.next() % m }

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// Family describes one kernel family for property-based testing: Make
// builds the kernel at an input scale (roughly the strip-mined trip count)
// with the input RNG reseeded, so the differential conformance harness and
// FuzzKernelSizes can sweep sizes — including trip counts that do not
// divide any hardware vector length — and seeds far beyond the canonical
// suite.
type Family struct {
	Name string
	// MemEquiv reports whether the scalar and vectorized implementations
	// leave bit-identical flat-memory images, so their FNV-1a checksums can
	// be compared directly. False only for sw, whose scalar form keeps the
	// anti-diagonal DP buffers host-side while the vector form materializes
	// them in simulated memory.
	MemEquiv bool
	// MaxScale bounds scale for quadratic-cost kernels so fuzzing stays fast.
	MaxScale int
	Make     func(scale int, seed uint64) *Kernel
}

// Families enumerates every kernel family, including fp-saxpy (which is not
// part of the Default suite). Make clamps scale into [4, MaxScale].
func Families() []Family {
	clamp := func(scale, lo, hi int) int { return min(max(scale, lo), hi) }
	mk := func(name string, memEquiv bool, maxScale int, f func(sc int, seed uint64) *Kernel) Family {
		return Family{Name: name, MemEquiv: memEquiv, MaxScale: maxScale,
			Make: func(scale int, seed uint64) *Kernel { return f(clamp(scale, 4, maxScale), seed) }}
	}
	return []Family{
		mk("vvadd", true, 1<<16, func(sc int, seed uint64) *Kernel { return newVVAdd(sc, seed) }),
		mk("mmult", true, 1<<12, func(sc int, seed uint64) *Kernel { return newMMult(3, 5, sc, seed) }),
		mk("k-means", true, 1<<12, func(sc int, seed uint64) *Kernel { return newKMeans(sc, 3, 3, seed) }),
		mk("pathfinder", true, 1<<12, func(sc int, seed uint64) *Kernel { return newPathfinder(3, sc, seed) }),
		mk("jacobi-2d", true, 96, func(sc int, seed uint64) *Kernel { return newJacobi2D(sc, 2, seed) }),
		mk("backprop", true, 1<<12, func(sc int, seed uint64) *Kernel { return newBackprop(sc, 5, seed) }),
		mk("sw", false, 128, func(sc int, seed uint64) *Kernel { return newSW(sc, seed) }),
		mk("spmv", true, 1<<10, func(sc int, seed uint64) *Kernel { return newSpMV(sc, 2*sc+7, 9, seed) }),
		mk("streamcluster-dist", true, 1<<12, func(sc int, seed uint64) *Kernel { return newStreamclusterDist(sc, 3, 3, seed) }),
		mk("redux", true, 1<<16, func(sc int, seed uint64) *Kernel { return newRedux(sc, seed) }),
		mk("fp-saxpy", true, 1<<10, func(sc int, seed uint64) *Kernel { return newFPSaxpy(sc, seed) }),
	}
}
