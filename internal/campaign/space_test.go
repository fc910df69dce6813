package campaign

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/mem"
	"repro/internal/sim"
)

// crashSpace is the 48-cell space the crash-injection harness walks: big
// enough that kill points land mid-run, small enough for CI.
func crashSpace() Space {
	return Space{
		Kernels:     []string{"vvadd", "redux"},
		Scales:      []int{512, 2048},
		N:           []int{1, 4, 32},
		L2Ways:      []int{4, 8},
		DRAMLatency: []int64{50, 120},
	}
}

// TestCellIDStable pins the content-hash format: journals written by one
// build must resume under the next, so an accidental change to Params.String
// or the hash function must fail loudly here before it orphans checkpoints.
func TestCellIDStable(t *testing.T) {
	p := Params{Kernel: "vvadd", Scale: 4096, Seed: 0, N: 8,
		L2Ways: 8, L2MSHRs: 32, L2Banks: 8, LLCKB: 2048, DRAMLatency: 50}
	if got := p.ID(); got != "0fac955071586954" {
		t.Errorf("cell ID drifted: %s (journal compatibility break)", got)
	}
	if got := p.String(); got != "kernel=vvadd scale=4096 seed=0 n=8 l2_ways=8 l2_mshrs=32 l2_banks=8 llc_kb=2048 dram_lat=50" {
		t.Errorf("canonical rendering drifted: %s", got)
	}
}

// TestEnumerateDeterministic: enumeration is a pure function of the space —
// stable order, size matching the axis product, and collision-free IDs.
func TestEnumerateDeterministic(t *testing.T) {
	s := Space{
		Kernels: []string{"vvadd", "redux"},
		Scales:  []int{256, 1024},
		N:       []int{1, 8},
		L2Ways:  []int{4, 8},
	}
	a, b := s.Enumerate(), s.Enumerate()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two enumerations of the same space differ")
	}
	if len(a) != s.Size() || len(a) != 2*2*2*2 {
		t.Fatalf("enumerated %d cells, Size() = %d, want 16", len(a), s.Size())
	}
	seen := map[string]bool{}
	for _, p := range a {
		id := p.ID()
		if seen[id] {
			t.Fatalf("duplicate cell ID %s for %s", id, p)
		}
		seen[id] = true
	}
	// Row-major axis order: the last axis varies fastest.
	if a[0].L2Ways != 4 || a[1].L2Ways != 8 || a[0].N != a[1].N {
		t.Errorf("enumeration order not row-major: %s then %s", a[0], a[1])
	}
}

// TestDefaultsFillSinglePointAxes: an empty axis pins its Table III value,
// except N (full factor sweep) and Seeds (canonical 0).
func TestDefaultsFillSinglePointAxes(t *testing.T) {
	s := Space{Kernels: []string{"vvadd"}, Scales: []int{64}}.withDefaults()
	if !reflect.DeepEqual(s.N, analytic.Factors) {
		t.Errorf("default N = %v, want the full factor sweep %v", s.N, analytic.Factors)
	}
	if !reflect.DeepEqual(s.Seeds, []uint64{0}) {
		t.Errorf("default seeds = %v", s.Seeds)
	}
	if len(s.L2Ways) != 1 || s.L2Ways[0] != mem.L2Config.Ways {
		t.Errorf("default L2 ways = %v, want Table III's %d", s.L2Ways, mem.L2Config.Ways)
	}
	if len(s.LLCKB) != 1 || s.LLCKB[0] != mem.LLCConfig.SizeBytes>>10 {
		t.Errorf("default LLC = %v KiB", s.LLCKB)
	}
	if len(s.DRAMLatency) != 1 || s.DRAMLatency[0] != mem.DefaultDRAM().Latency {
		t.Errorf("default DRAM latency = %v", s.DRAMLatency)
	}
}

// TestValidateRejections: every class of unsimulatable space is refused
// with a message naming the offending axis.
func TestValidateRejections(t *testing.T) {
	ok := Space{Kernels: []string{"vvadd"}, Scales: []int{64}}
	cases := []struct {
		name   string
		mutate func(*Space)
		want   string
	}{
		{"no kernels", func(s *Space) { s.Kernels = nil }, "no kernels"},
		{"unknown kernel", func(s *Space) { s.Kernels = []string{"fft"} }, "unknown kernel"},
		{"no scales", func(s *Space) { s.Scales = nil }, "no input scales"},
		{"bad scale", func(s *Space) { s.Scales = []int{0} }, "scale 0"},
		{"bad factor", func(s *Space) { s.N = []int{3} }, "EVE factor 3"},
		{"odd l2 ways", func(s *Space) { s.L2Ways = []int{6} }, "l2_ways"},
		{"one l2 way", func(s *Space) { s.L2Ways = []int{1} }, "l2_ways"},
		{"bad mshrs", func(s *Space) { s.L2MSHRs = []int{0} }, "l2_mshrs"},
		{"bad banks", func(s *Space) { s.L2Banks = []int{-1} }, "l2_banks"},
		{"non-pow2 llc", func(s *Space) { s.LLCKB = []int{3000} }, "llc_kb"},
		{"tiny llc", func(s *Space) { s.LLCKB = []int{32} }, "llc_kb"},
		{"bad dram", func(s *Space) { s.DRAMLatency = []int64{0} }, "dram_latency"},
		{"duplicate axis value", func(s *Space) { s.Scales = []int{64, 64} }, "duplicate"},
		{"more l2 ways than lines", func(s *Space) { s.L2Ways = []int{16384} }, "l2_ways"},
		{"more l2 banks than lines", func(s *Space) { s.L2Banks = []int{1 << 40} }, "l2_banks"},
		{"huge llc", func(s *Space) { s.LLCKB = []int{1 << 40} }, "llc_kb"},
		{"huge dram", func(s *Space) { s.DRAMLatency = []int64{1 << 62} }, "dram_latency"},
		{"too many cells", func(s *Space) {
			s.Scales = make([]int, 1100)
			s.Seeds = make([]uint64, 1100)
			for i := range s.Scales {
				s.Scales[i], s.Seeds[i] = i+1, uint64(i)
			}
		}, "more than"},
	}
	for _, tc := range cases {
		s := ok
		tc.mutate(&s)
		err := s.withDefaults().Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid space", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the problem (%q)", tc.name, err, tc.want)
		}
	}
	if err := ok.withDefaults().Validate(); err != nil {
		t.Errorf("valid space rejected: %v", err)
	}
}

// TestSystemConfigAppliesAxes: the cell's geometry axes really land in the
// sim.Config the sweep will run.
func TestSystemConfigAppliesAxes(t *testing.T) {
	p := Params{Kernel: "vvadd", Scale: 64, N: 4,
		L2Ways: 4, L2MSHRs: 16, L2Banks: 2, LLCKB: 1024, DRAMLatency: 120}
	cfg := p.SystemConfig(0)
	if cfg.Kind != sim.SysO3EVE || cfg.N != 4 {
		t.Fatalf("config system = %s", cfg.Name())
	}
	if cfg.Mem == nil {
		t.Fatal("no MemParams attached")
	}
	if cfg.Mem.L2.Ways != 4 || cfg.Mem.L2.MSHRs != 16 || cfg.Mem.L2.Banks != 2 {
		t.Errorf("L2 axes lost: %+v", cfg.Mem.L2)
	}
	if cfg.Mem.L2.SizeBytes != mem.L2Config.SizeBytes {
		t.Errorf("L2 capacity should stay Table III: %d", cfg.Mem.L2.SizeBytes)
	}
	if cfg.Mem.LLC.SizeBytes != 1024<<10 {
		t.Errorf("LLC capacity = %d", cfg.Mem.LLC.SizeBytes)
	}
	if cfg.Mem.DRAMLatency != 120 {
		t.Errorf("DRAM latency = %d", cfg.Mem.DRAMLatency)
	}
}

// TestWorkloadBridge: cells build real kernels; unknown families fail.
func TestWorkloadBridge(t *testing.T) {
	k, err := (Params{Kernel: "redux", Scale: 64}).Workload()
	if err != nil || k == nil {
		t.Fatalf("redux cell: %v", err)
	}
	if _, err := (Params{Kernel: "nope"}).Workload(); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// ends keeps an axis's first and last values.
func ends[T any](v []T) []T {
	if len(v) <= 2 {
		return v
	}
	return []T{v[0], v[len(v)-1]}
}

// FuzzSpace feeds arbitrary bytes through the path an eve-explore space
// file takes: ParseSpace, the defaults, Validate, then Enumerate. A space
// that validates must enumerate exactly Size cells, and every cell must
// build: its SystemConfig assembles a system and its Workload a kernel.
// Large spaces are checked on every axis's first and last values, which
// are its extremes for the axes with bounds. Anything else must end in an
// error — never a panic. The checked-in corpus (testdata/fuzz/FuzzSpace)
// holds each bound's edge and the inputs that panicked before Validate
// had the bound.
func FuzzSpace(f *testing.F) {
	for _, s := range []Space{crashSpace(), replaySpace(), smallSpace(), {Kernels: []string{"vvadd"}, Scales: []int{1}}} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpace(data)
		if err != nil {
			return
		}
		s = s.withDefaults()
		if err := s.Validate(); err != nil {
			return
		}
		if n := s.Size(); n < 1 || n > maxCells {
			t.Fatalf("a valid space has %d cells", n)
		}
		if s.Size() > 64 {
			s.Kernels, s.Scales, s.Seeds, s.N = ends(s.Kernels), ends(s.Scales), ends(s.Seeds), ends(s.N)
			s.L2Ways, s.L2MSHRs, s.L2Banks = ends(s.L2Ways), ends(s.L2MSHRs), ends(s.L2Banks)
			s.LLCKB, s.DRAMLatency = ends(s.LLCKB), ends(s.DRAMLatency)
		}
		cells := s.Enumerate()
		if len(cells) != s.Size() {
			t.Fatalf("Enumerate gave %d cells, Size %d", len(cells), s.Size())
		}
		kernels := map[[2]any]bool{}
		for _, p := range cells {
			cfg := p.SystemConfig(s.MaxUProgCycles)
			if sys := sim.NewSystem(cfg, 1<<16); sys.Builder().HWVL() != cfg.HWVL() {
				t.Fatalf("%s: builder HWVL %d, Config.HWVL %d", p, sys.Builder().HWVL(), cfg.HWVL())
			}
			key := [2]any{p.Kernel, [2]uint64{uint64(p.Scale), p.Seed}}
			if kernels[key] {
				continue
			}
			kernels[key] = true
			if k, err := p.Workload(); err != nil || k == nil || k.Run == nil {
				t.Fatalf("%s: Workload() = %v, %v", p, k, err)
			}
		}
	})
}
