// Package campaign is the crash-safe campaign engine: Execute runs a list
// of cells with stable IDs once each on the internal/sweep pool, through
// an append-only, fsync'd, CRC-guarded journal (one JSON line per finished
// cell, torn-tail tolerant). Opening a journal resumes it: the cells its
// records settle are skipped, so a killed campaign rerun over the same
// path reproduces the uninterrupted run's report byte-identically.
// Cancellation (SIGINT) lets cells in flight finish and land in the
// journal, and returns *InterruptedError; a failed cell is recorded
// failed-with-reason and the campaign completes around it.
//
// Run is design-space exploration on it: a declarative parameter space —
// kernel, input scale, input seed, EVE-n segmentation, L2
// associativity/MSHR/bank counts, LLC capacity, DRAM latency, all flowing
// through sim.Config so the paramlit provenance discipline holds —
// enumerated into content-hashed cell IDs, with a per-cell wall-clock
// watchdog for host trouble: a timed-out cell is journaled timeout, and
// only a later resume runs it again. internal/faults runs its fault
// campaigns on Execute too. Reports carry no timestamps and no wall times.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/analytic"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Space is a declarative parameter space: the cross product of its axes.
// Empty axes inherit single-point Table III defaults (Seeds inherits {0},
// N inherits the full factor sweep), so a Space only names the axes it
// explores. The JSON form is what cmd/eve-explore's -space flag loads.
type Space struct {
	// Kernels are workload family names (workloads.Families).
	Kernels []string `json:"kernels"`
	// Scales are input scales, roughly the strip-mined trip count
	// (workloads.Family.Make clamps into the family's valid range).
	Scales []int `json:"scales"`
	// Seeds are input-generator seeds; 0 selects the canonical published
	// input streams.
	Seeds []uint64 `json:"seeds,omitempty"`
	// N are EVE segmentation factors (analytic.Factors).
	N []int `json:"n,omitempty"`
	// L2Ways sweeps the L2 associativity — and with it the EVE way-split,
	// since spawning partitions half the ways. Power of two, ≥ 2.
	L2Ways []int `json:"l2_ways,omitempty"`
	// L2MSHRs and L2Banks sweep the L2 miss-handling and banking resources.
	L2MSHRs []int `json:"l2_mshrs,omitempty"`
	L2Banks []int `json:"l2_banks,omitempty"`
	// LLCKB sweeps LLC capacity in KiB (power of two: the 16-way geometry
	// needs a power-of-two set count).
	LLCKB []int `json:"llc_kb,omitempty"`
	// DRAMLatency sweeps the closed-page DRAM access latency in core cycles.
	DRAMLatency []int64 `json:"dram_latency,omitempty"`
	// MaxUProgCycles is the per-micro-program watchdog budget applied to
	// every cell (not an axis); zero selects uprog.DefaultMaxCycles.
	MaxUProgCycles int `json:"max_uprog_cycles,omitempty"`
}

// Params is one fully-specified cell of a space: every axis pinned to a
// concrete value. The zero value is not a valid cell; cells come from
// Space.Enumerate.
type Params struct {
	Kernel      string `json:"kernel"`
	Scale       int    `json:"scale"`
	Seed        uint64 `json:"seed"`
	N           int    `json:"n"`
	L2Ways      int    `json:"l2_ways"`
	L2MSHRs     int    `json:"l2_mshrs"`
	L2Banks     int    `json:"l2_banks"`
	LLCKB       int    `json:"llc_kb"`
	DRAMLatency int64  `json:"dram_latency"`
}

// String renders the canonical parameter tuple — the injective form the
// cell ID hashes and error messages cite.
func (p Params) String() string {
	return fmt.Sprintf("kernel=%s scale=%d seed=%d n=%d l2_ways=%d l2_mshrs=%d l2_banks=%d llc_kb=%d dram_lat=%d",
		p.Kernel, p.Scale, p.Seed, p.N, p.L2Ways, p.L2MSHRs, p.L2Banks, p.LLCKB, p.DRAMLatency)
}

// ID is the cell's content-hashed identity: FNV-1a over the canonical
// rendering, in fixed-width hex. Deterministic across processes and
// architectures; the journal and resume logic key on it.
func (p Params) ID() string {
	h := fnv.New64a()
	// Write to a hash never fails.
	//evelint:allow errdrop -- hash.Hash.Write is documented to never return an error
	h.Write([]byte(p.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Label is the compact per-cell descriptor progress observers print as the
// "system" column.
func (p Params) Label() string {
	return fmt.Sprintf("n%d/w%d/m%d/b%d/llc%d/d%d", p.N, p.L2Ways, p.L2MSHRs, p.L2Banks, p.LLCKB, p.DRAMLatency)
}

// SystemConfig assembles the cell's simulated system: O3+EVE-n over a
// Table III hierarchy with the cell's geometry, resource and DRAM axes
// applied through sim.MemParams.
func (p Params) SystemConfig(maxUProgCycles int) sim.Config {
	l2 := mem.L2Config
	l2.Ways = p.L2Ways
	l2.MSHRs = p.L2MSHRs
	l2.Banks = p.L2Banks
	llc := mem.LLCConfig
	llc.SizeBytes = p.LLCKB << 10
	return sim.Config{
		Kind:           sim.SysO3EVE,
		N:              p.N,
		MaxUProgCycles: maxUProgCycles,
		Mem: &sim.MemParams{
			L1D:         mem.L1DConfig,
			L2:          l2,
			LLC:         llc,
			DRAMLatency: p.DRAMLatency,
		},
	}
}

// Workload builds the cell's kernel from its family at the cell's scale and
// seed.
func (p Params) Workload() (*workloads.Kernel, error) {
	for _, f := range workloads.Families() {
		if f.Name == p.Kernel {
			return f.Make(p.Scale, p.Seed), nil
		}
	}
	return nil, fmt.Errorf("campaign: unknown kernel family %q", p.Kernel)
}

// ParseSpace decodes a Space from its JSON form, the one cmd/eve-explore's
// -space flag loads. A field the Space does not have is an error, so a
// misspelt axis cannot silently fall back to its default. It does not
// validate: Validate does.
func ParseSpace(data []byte) (Space, error) {
	var s Space
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Space{}, err
	}
	return s, nil
}

// Bounds Validate puts on a space from an untrusted file, so that every
// cell it accepts builds and every count it computes fits an int.
const (
	// maxCells caps a space's cell count.
	maxCells = 1 << 20
	// maxLLCKB caps the LLC capacity axis at 256 MiB.
	maxLLCKB = 1 << 18
	// maxDRAMLatency caps the DRAM latency axis, keeping cycle arithmetic
	// far from overflow.
	maxDRAMLatency = 1 << 20
)

// withDefaults fills empty axes with their single-point Table III values
// (N inherits the full factor sweep, Seeds the canonical seed 0), so
// enumeration and cell IDs always see fully-specified tuples.
func (s Space) withDefaults() Space {
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{0}
	}
	if len(s.N) == 0 {
		s.N = append([]int(nil), analytic.Factors...)
	}
	if len(s.L2Ways) == 0 {
		s.L2Ways = []int{mem.L2Config.Ways}
	}
	if len(s.L2MSHRs) == 0 {
		s.L2MSHRs = []int{mem.L2Config.MSHRs}
	}
	if len(s.L2Banks) == 0 {
		s.L2Banks = []int{mem.L2Config.Banks}
	}
	if len(s.LLCKB) == 0 {
		s.LLCKB = []int{mem.LLCConfig.SizeBytes >> 10}
	}
	if len(s.DRAMLatency) == 0 {
		s.DRAMLatency = []int64{mem.DefaultDRAM().Latency}
	}
	return s
}

// powerOfTwo reports whether v is a positive power of two.
func powerOfTwo(v int) bool { return v > 0 && v&(v-1) == 0 }

// Validate rejects spaces that cannot simulate: unknown kernel families,
// invalid EVE factors, geometries the cache model would panic on, and
// duplicate axis values (which would enumerate two cells with the same
// content hash — a journal ambiguity). It checks the defaulted space, the
// one Size counts and Run runs.
func (s Space) Validate() error {
	s = s.withDefaults()
	if len(s.Kernels) == 0 {
		return fmt.Errorf("campaign: space has no kernels")
	}
	if len(s.Scales) == 0 {
		return fmt.Errorf("campaign: space has no input scales")
	}
	if err := uniqueAxis("kernels", s.Kernels, func(k string) error {
		if !slices.ContainsFunc(workloads.Families(), func(f workloads.Family) bool { return f.Name == k }) {
			return fmt.Errorf("unknown kernel family %q", k)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := uniqueAxis("scales", s.Scales, func(v int) error {
		if v <= 0 {
			return fmt.Errorf("scale %d must be positive", v)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := uniqueAxis("seeds", s.Seeds, func(uint64) error { return nil }); err != nil {
		return err
	}
	if err := uniqueAxis("n", s.N, func(n int) error {
		if !slices.Contains(analytic.Factors, n) {
			return fmt.Errorf("EVE factor %d not in %v", n, analytic.Factors)
		}
		return nil
	}); err != nil {
		return err
	}
	// A set needs a line per way, so the L2 cannot have more ways (or
	// banks) than lines.
	l2Lines := mem.L2Config.SizeBytes / mem.LineBytes
	if err := uniqueAxis("l2_ways", s.L2Ways, func(w int) error {
		if !powerOfTwo(w) || w < 2 || w > l2Lines {
			return fmt.Errorf("L2 ways %d must be a power of two in [2, %d] (EVE spawning splits the ways in half; a set holds one line per way)", w, l2Lines)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := uniqueAxis("l2_mshrs", s.L2MSHRs, func(v int) error {
		if v <= 0 {
			return fmt.Errorf("L2 MSHR count %d must be positive", v)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := uniqueAxis("l2_banks", s.L2Banks, func(v int) error {
		if v <= 0 || v > l2Lines {
			return fmt.Errorf("L2 bank count %d must be in [1, %d], the L2's line count", v, l2Lines)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := uniqueAxis("llc_kb", s.LLCKB, func(kb int) error {
		// 16-way LLC over 64-byte lines: KiB must be a power of two for a
		// power-of-two set count (mem.NewCache panics otherwise).
		if !powerOfTwo(kb) || kb < 64 || kb > maxLLCKB {
			return fmt.Errorf("LLC capacity %d KiB must be a power of two in [64, %d]", kb, maxLLCKB)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := uniqueAxis("dram_latency", s.DRAMLatency, func(v int64) error {
		if v <= 0 || v > maxDRAMLatency {
			return fmt.Errorf("DRAM latency %d must be in [1, %d] cycles", v, maxDRAMLatency)
		}
		return nil
	}); err != nil {
		return err
	}
	// Multiply the axis lengths with an early exit, so a huge space cannot
	// overflow the count Size and Enumerate rely on.
	cells := 1
	for _, n := range []int{len(s.Kernels), len(s.Scales), len(s.Seeds), len(s.N),
		len(s.L2Ways), len(s.L2MSHRs), len(s.L2Banks), len(s.LLCKB), len(s.DRAMLatency)} {
		if cells *= n; cells > maxCells {
			return fmt.Errorf("campaign: space has more than %d cells", maxCells)
		}
	}
	return nil
}

// uniqueAxis applies a per-value check and rejects duplicates within the
// axis.
func uniqueAxis[T comparable](name string, values []T, check func(T) error) error {
	seen := map[T]bool{}
	for _, v := range values {
		if err := check(v); err != nil {
			return fmt.Errorf("campaign: axis %s: %w", name, err)
		}
		if seen[v] {
			return fmt.Errorf("campaign: axis %s: duplicate value %v", name, v)
		}
		seen[v] = true
	}
	return nil
}

// Size is the cell count of the defaulted space.
func (s Space) Size() int {
	s = s.withDefaults()
	return len(s.Kernels) * len(s.Scales) * len(s.Seeds) * len(s.N) *
		len(s.L2Ways) * len(s.L2MSHRs) * len(s.L2Banks) * len(s.LLCKB) * len(s.DRAMLatency)
}

// Enumerate lists every cell of the defaulted space in canonical row-major
// axis order (kernel, scale, seed, n, l2 ways, l2 mshrs, l2 banks, llc,
// dram latency). The order is deterministic: it defines the cell order of
// journals, reports and resume bookkeeping.
func (s Space) Enumerate() []Params {
	s = s.withDefaults()
	out := make([]Params, 0, s.Size())
	for _, k := range s.Kernels {
		for _, sc := range s.Scales {
			for _, seed := range s.Seeds {
				for _, n := range s.N {
					for _, w := range s.L2Ways {
						for _, m := range s.L2MSHRs {
							for _, b := range s.L2Banks {
								for _, kb := range s.LLCKB {
									for _, dl := range s.DRAMLatency {
										out = append(out, Params{
											Kernel: k, Scale: sc, Seed: seed, N: n,
											L2Ways: w, L2MSHRs: m, L2Banks: b,
											LLCKB: kb, DRAMLatency: dl,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}
