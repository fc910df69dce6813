package faults_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/uprog"
	"repro/internal/workloads"
)

// eveCfg is the campaign system used throughout: EVE-32 keeps the substrate
// single-segment (fast) and its hardware vector length (256) large enough
// to exercise strip-mined tails.
var eveCfg = sim.Config{Kind: sim.SysO3EVE, N: 32}

func runWith(t *testing.T, cfg sim.Config, k *workloads.Kernel, arm *faults.Fault) (sim.Result, uint64, *faults.Datapath) {
	t.Helper()
	var dp *faults.Datapath
	r, sum := sim.RunDatapath(cfg, k, func(hwvl int) isa.Datapath {
		dp = faults.NewDatapath(cfg.N, hwvl, cfg.MaxUProgCycles)
		if arm != nil {
			dp.Arm(*arm)
		}
		return dp
	})
	return r, sum, dp
}

// TestZeroFaultDatapathMatchesGolden holds the re-execution contract: with
// no faults armed, routing every vector instruction through the bit-level
// substrate reproduces the golden run exactly — validation verdict, cycle
// count, instruction mix — for the full benchmark suite, across segmented
// (n=4) and single-segment (n=32) layouts.
func TestZeroFaultDatapathMatchesGolden(t *testing.T) {
	for _, n := range []int{4, 32} {
		cfg := sim.Config{Kind: sim.SysO3EVE, N: n}
		for _, k := range workloads.Small() {
			golden := sim.Run(cfg, k)
			if golden.Err != nil {
				t.Fatalf("n=%d %s: golden run failed: %v", n, k.Name, golden.Err)
			}
			r, sum, _ := runWith(t, cfg, k, nil)
			if r.Err != nil {
				t.Fatalf("n=%d %s: zero-fault datapath run failed: %v", n, k.Name, r.Err)
			}
			if r.Cycles != golden.Cycles {
				t.Errorf("n=%d %s: datapath cycles %d != golden %d", n, k.Name, r.Cycles, golden.Cycles)
			}
			if !reflect.DeepEqual(r.Mix, golden.Mix) {
				t.Errorf("n=%d %s: datapath mix diverges from golden", n, k.Name)
			}
			if sum == 0 {
				t.Errorf("n=%d %s: zero checksum from a completed run", n, k.Name)
			}
			// Same seed of nothing: a second zero-fault run is bit-identical.
			r2, sum2, _ := runWith(t, cfg, k, nil)
			if sum2 != sum || r2.Cycles != r.Cycles {
				t.Errorf("n=%d %s: zero-fault runs disagree (%d/%d cycles, %#x/%#x sum)",
					n, k.Name, r.Cycles, r2.Cycles, sum, sum2)
			}
		}
	}
}

// check64 builds a checker over a uint32 region.
func check64(b *isa.Builder, name string, base uint64, want []uint32) error {
	for i, w := range want {
		if got := b.Mem.LoadU32(base + uint64(4*i)); got != w {
			return fmt.Errorf("%s: element %d = %#x, want %#x", name, i, got, w)
		}
	}
	return nil
}

// doubleKernel streams n elements of value 2 through v1, computes v3=v1+v1
// on the substrate, and checks every output element equals 4.
func doubleKernel(n int) *workloads.Kernel {
	return &workloads.Kernel{
		Name: "fi-double", Suite: "t", Input: fmt.Sprint(n),
		Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
			f := b.Mem
			aAddr, cAddr := f.AllocU32(n), f.AllocU32(n)
			want := make([]uint32, n)
			for i := 0; i < n; i++ {
				f.StoreU32(aAddr+uint64(4*i), 2)
				want[i] = 4
			}
			for i := 0; i < n; {
				vl := b.SetVL(n - i)
				off := uint64(4 * i)
				b.Load(1, aAddr+off)
				b.Add(3, 1, 1)
				b.Store(3, cAddr+off)
				i += vl
			}
			b.Fence()
			return func() error { return check64(b, "fi-double", cAddr, want) }
		},
	}
}

// TestMaskedOutcome: a bit flip in a register row no instruction ever reads
// (v20) changes nothing observable — checker passes, checksum matches.
func TestMaskedOutcome(t *testing.T) {
	k := doubleKernel(64)
	_, baseline, dp := runWith(t, eveCfg, k, nil)
	prof := dp.Profile()
	f := faults.Fault{
		Kind: faults.KindBitFlip,
		Row:  uprog.NewLayout(eveCfg.N).RegRow(20, 0),
		Col:  0,
		Seq:  prof.Accesses / 2,
	}
	r, sum, _ := runWith(t, eveCfg, k, &f)
	if r.Err != nil {
		t.Fatalf("flip in unused register failed the run: %v", r.Err)
	}
	if got := faults.Classify(r.Err, sum, baseline); got != faults.Masked {
		t.Errorf("outcome = %v (sum %#x vs baseline %#x), want masked", got, sum, baseline)
	}
}

// TestDetectedOutcome: a sense amplifier stuck at 1 on element 0's LSB
// corrupts the computed sum (2+2 reads as 3+3), and the workload checker
// catches it.
func TestDetectedOutcome(t *testing.T) {
	k := doubleKernel(64)
	_, baseline, _ := runWith(t, eveCfg, k, nil)
	f := faults.Fault{Kind: faults.KindStuckSA, Col: 0, Stuck: true}
	r, sum, _ := runWith(t, eveCfg, k, &f)
	if r.Err == nil {
		t.Fatal("stuck LSB sense amp was not detected by the checker")
	}
	var se *sim.SimError
	if errors.As(r.Err, &se) {
		t.Fatalf("expected a checker detection, got a crash: %v", r.Err)
	}
	if got := faults.Classify(r.Err, sum, baseline); got != faults.Detected {
		t.Errorf("outcome = %v, want detected (err: %v)", got, r.Err)
	}
}

// sdcKernel computes and checks c=a+a, then copies the result to an
// *unchecked* second output region. A late fault corrupting the copy slips
// past the checker but changes the final memory image.
func sdcKernel(n int) *workloads.Kernel {
	return &workloads.Kernel{
		Name: "fi-sdc", Suite: "t", Input: fmt.Sprint(n),
		Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
			f := b.Mem
			aAddr, cAddr, dAddr := f.AllocU32(n), f.AllocU32(n), f.AllocU32(n)
			want := make([]uint32, n)
			for i := 0; i < n; i++ {
				f.StoreU32(aAddr+uint64(4*i), 5)
				want[i] = 10
			}
			b.SetVL(n)
			b.Load(1, aAddr)
			b.Add(3, 1, 1)
			b.Store(3, cAddr)
			b.Mv(4, 3)
			// Filler compute keeps the array access sequence running after
			// v4 is written, giving late bit flips a window to land in.
			for j := 0; j < 8; j++ {
				b.Add(5, 1, 1)
			}
			b.Store(4, dAddr)
			b.Fence()
			return func() error { return check64(b, "fi-sdc", cAddr, want) }
		},
	}
}

// TestSDCOutcome: a bit flip on v4's row after the copy corrupts only the
// unchecked output region — checker passes, checksum diverges.
func TestSDCOutcome(t *testing.T) {
	k := sdcKernel(64)
	_, baseline, dp := runWith(t, eveCfg, k, nil)
	prof := dp.Profile()
	f := faults.Fault{
		Kind: faults.KindBitFlip,
		Row:  uprog.NewLayout(eveCfg.N).RegRow(4, 0),
		Col:  0, // element 0, bit 0
		Seq:  prof.Accesses - 1,
	}
	r, sum, _ := runWith(t, eveCfg, k, &f)
	if r.Err != nil {
		t.Fatalf("late flip was unexpectedly detected: %v", r.Err)
	}
	if sum == baseline {
		t.Fatal("late flip did not change the final memory image")
	}
	if got := faults.Classify(r.Err, sum, baseline); got != faults.SDC {
		t.Errorf("outcome = %v, want sdc", got)
	}
}

// crashKernel gathers through an index vector computed on the substrate; a
// stuck-at-1 sense amp on the index's top bit drives the gather 2 GiB out
// of bounds.
func crashKernel() *workloads.Kernel {
	return &workloads.Kernel{
		Name: "fi-crash", Suite: "t", Input: "8",
		Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
			f := b.Mem
			base := f.AllocU32(64)
			b.SetVL(8)
			b.MvVX(1, 8)
			b.OrVX(2, 1, 4) // v2 = 12: byte offsets, natively computed
			b.LoadIdx(3, base, 2)
			b.Store(3, base)
			b.Fence()
			return func() error { return nil }
		},
	}
}

// TestCrashOutcome: the wild gather panics with a typed mem.AccessError,
// which sim.Run converts into a recoverable *SimError — a crash cell, not a
// dead sweep.
func TestCrashOutcome(t *testing.T) {
	k := crashKernel()
	_, baseline, _ := runWith(t, eveCfg, k, nil)
	f := faults.Fault{Kind: faults.KindStuckSA, Col: 31, Stuck: true} // element 0, bit 31
	r, sum, _ := runWith(t, eveCfg, k, &f)
	if r.Err == nil {
		t.Fatal("out-of-bounds gather did not fail")
	}
	var se *sim.SimError
	if !errors.As(r.Err, &se) {
		t.Fatalf("expected *sim.SimError, got %T: %v", r.Err, r.Err)
	}
	if se.Subsystem != "mem" {
		t.Errorf("crash subsystem = %q, want mem", se.Subsystem)
	}
	if sum != 0 {
		t.Errorf("crashed run reported checksum %#x, want 0", sum)
	}
	if got := faults.Classify(r.Err, sum, baseline); got != faults.Crash {
		t.Errorf("outcome = %v, want crash", got)
	}
}

// sumKernel streams two distinct input vectors (2s and 3s) through v1/v2 and
// checks v3 = v1 + v2 = 5. Unlike doubleKernel's v1+v1 — where both operands
// share a wordline, making every dropped activation a no-op by construction —
// this kernel's bit-line computes activate two different rows, so a drop
// (sense amps see ra∘ra instead of ra∘rb) is architecturally meaningful.
func sumKernel(n int) *workloads.Kernel {
	return &workloads.Kernel{
		Name: "fi-sum", Suite: "t", Input: fmt.Sprint(n),
		Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
			f := b.Mem
			aAddr, bAddr, cAddr := f.AllocU32(n), f.AllocU32(n), f.AllocU32(n)
			want := make([]uint32, n)
			for i := 0; i < n; i++ {
				f.StoreU32(aAddr+uint64(4*i), 2)
				f.StoreU32(bAddr+uint64(4*i), 3)
				want[i] = 5
			}
			b.SetVL(n)
			b.Load(1, aAddr)
			b.Load(2, bAddr)
			b.Add(3, 1, 2)
			b.Store(3, cAddr)
			b.Fence()
			return func() error { return check64(b, "fi-sum", cAddr, want) }
		},
	}
}

// TestWordlineDropCorrupts: dropping a wordline activation mid-kernel makes
// a bit-line compute see row-AND/OR-itself, corrupting the sum the checker
// validates.
func TestWordlineDropCorrupts(t *testing.T) {
	k := sumKernel(64)
	_, baseline, dp := runWith(t, eveCfg, k, nil)
	prof := dp.Profile()
	if prof.BLCs == 0 {
		t.Fatal("profile reports zero bit-line computes")
	}
	// Sweep every drop site; at least one must perturb the checked output
	// (2+3 degenerating through a corrupted carry chain).
	hit := false
	for seq := uint64(0); seq < prof.BLCs; seq++ {
		f := faults.Fault{Kind: faults.KindWordlineDrop, Seq: seq}
		r, sum, _ := runWith(t, eveCfg, k, &f)
		if faults.Classify(r.Err, sum, baseline) != faults.Masked {
			hit = true
			break
		}
	}
	if !hit {
		t.Error("no sampled wordline drop became architecturally visible")
	}
}

// TestSitesDeterministic: site sampling is a pure function of its inputs.
func TestSitesDeterministic(t *testing.T) {
	p := faults.Profile{Rows: 42, Cols: 8192, Accesses: 10000, BLCs: 4000}
	kinds := []faults.Kind{faults.KindBitFlip, faults.KindStuckSA, faults.KindWordlineDrop}
	a := faults.Sites(7, p, 64, kinds)
	b := faults.Sites(7, p, 64, kinds)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different site lists")
	}
	c := faults.Sites(8, p, 64, kinds)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical site lists")
	}
	seen := map[faults.Kind]bool{}
	for _, f := range a {
		seen[f.Kind] = true
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("64 samples never drew kind %v", k)
		}
	}
}

// TestSitesPrefixStable: site i does not depend on how many sites are
// drawn, so a larger campaign contains a smaller one's cells and a
// stopping rule can keep drawing where it left off.
func TestSitesPrefixStable(t *testing.T) {
	p := faults.Profile{Rows: 159, Cols: 8192, Accesses: 123457, BLCs: 40009}
	for _, kinds := range [][]faults.Kind{
		{faults.KindBitFlip, faults.KindStuckSA, faults.KindWordlineDrop},
		{faults.KindWordlineDrop},
	} {
		long := faults.Sites(11, p, 200, kinds)
		for _, k := range []int{0, 1, 7, 64, 199} {
			if short := faults.Sites(11, p, k, kinds); !reflect.DeepEqual(short, long[:k]) {
				t.Fatalf("kinds %v: the first %d of 200 sites differ from Sites(..., %d)", kinds, k, k)
			}
		}
	}
}

// TestCampaignDeterministicAcrossWorkers: the acceptance criterion — the
// same seeded campaign marshals to byte-identical JSON across repeated runs
// and across worker counts, and the zero-fault baseline phase reproduces
// the golden sweep (VerifyBaseline).
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	campaign := func(workers int) []byte {
		rep, err := faults.Run(faults.Config{
			System:         eveCfg,
			Kernels:        []*workloads.Kernel{workloads.NewVVAdd(512), doubleKernel(96)},
			SitesPerKernel: 6,
			Seed:           42,
			Workers:        workers,
			VerifyBaseline: true,
		})
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := campaign(1)
	for _, w := range []int{1, 4, 8} {
		if got := campaign(w); !bytes.Equal(got, serial) {
			t.Fatalf("campaign JSON at %d workers diverges from serial run", w)
		}
	}
	var rep faults.Report
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Total != 12 {
		t.Errorf("summary total = %d, want 12", rep.Summary.Total)
	}
	if rep.Summary.Masked+rep.Summary.Detected+rep.Summary.SDC+rep.Summary.Crash != rep.Summary.Total {
		t.Error("summary outcome counts do not add up to total")
	}
}

// TestCampaignRequiresEVE: the substrate being injected is the EVE SRAM; a
// scalar system is a configuration error.
func TestCampaignRequiresEVE(t *testing.T) {
	_, err := faults.Run(faults.Config{
		System:  sim.Config{Kind: sim.SysO3},
		Kernels: []*workloads.Kernel{workloads.NewVVAdd(64)},
	})
	if err == nil {
		t.Fatal("campaign on a non-EVE system did not error")
	}
}

// TestRunRejectsBadConfig: a factor EVE does not have, or a negative site
// count, is an error from Run before any cell runs.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, cfg := range []faults.Config{
		{System: sim.Config{Kind: sim.SysO3EVE, N: 3}, SitesPerKernel: 1},
		{System: sim.Config{Kind: sim.SysO3EVE, N: 64}, SitesPerKernel: 1},
		{System: sim.Config{Kind: sim.SysO3EVE, N: 8}, SitesPerKernel: -1},
	} {
		cfg.Kernels = []*workloads.Kernel{workloads.NewVVAdd(64)}
		var started startCounter
		cfg.Observer = &started
		if _, err := faults.Run(cfg); err == nil || cfg.Validate() == nil {
			t.Errorf("n=%d sites=%d: accepted", cfg.System.N, cfg.SitesPerKernel)
		}
		if started > 0 {
			t.Errorf("n=%d sites=%d: %d cells started", cfg.System.N, cfg.SitesPerKernel, started)
		}
	}
}

// startCounter counts the cells a sweep starts.
type startCounter int

func (c *startCounter) CellStart(int, string, string)                     { *c++ }
func (c *startCounter) CellDone(int, int, int, sim.Result, time.Duration) {}
func (c *startCounter) SweepDone(int, int)                                {}

// TestParseKinds round-trips the CLI kind syntax.
func TestParseKinds(t *testing.T) {
	all, err := faults.ParseKinds("all")
	if err != nil || len(all) != 3 {
		t.Fatalf("ParseKinds(all) = %v, %v", all, err)
	}
	two, err := faults.ParseKinds("bitflip,stuck-sa")
	if err != nil || len(two) != 2 || two[0] != faults.KindBitFlip || two[1] != faults.KindStuckSA {
		t.Fatalf("ParseKinds(bitflip,stuck-sa) = %v, %v", two, err)
	}
	if _, err := faults.ParseKinds("cosmic-ray"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
