package faults_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/uprog"
	"repro/internal/workloads"
)

// stepMarks wraps a fault-free datapath and records, for every Exec that
// runs a micro-program, the instruction and the access and blc counts
// before and after it.
type stepMarks struct {
	*faults.Datapath
	steps []markedStep
}

type markedStep struct {
	in            isa.Instr
	before, after faults.Profile
}

func (s *stepMarks) Exec(in *isa.Instr, golden []uint32) []uint32 {
	before := s.Profile()
	out := s.Datapath.Exec(in, golden)
	if after := s.Profile(); after.Accesses > before.Accesses {
		s.steps = append(s.steps, markedStep{*in, before, after})
	}
	return out
}

// cellRun is what a campaign classifies a cell by.
type cellRun struct {
	cycles int64
	err    string
	sum    uint64
}

func runCell(cfg sim.Config, k *workloads.Kernel, f faults.Fault, live bool) cellRun {
	r, sum := sim.RunDatapath(cfg, k, func(hwvl int) isa.Datapath {
		dp := faults.NewDatapath(cfg.N, hwvl, cfg.MaxUProgCycles)
		dp.Arm(f)
		if live {
			return faults.AlwaysLive{Datapath: dp}
		}
		return dp
	})
	c := cellRun{cycles: r.Cycles, sum: sum}
	if r.Err != nil {
		c.err = r.Err.Error()
	}
	return c
}

// dormancySites are the faults TestDormantMatchesLive arms on a kernel:
// bit flips on a register row (the middle instruction's source), on two
// scratch rows (the min/max selector s4 and s0's top segment) and on each
// constant row; wordline drops; and stuck columns at each polarity, in the
// first, a middle and the last element. The flips and drops fire at the
// run's first index, at the first and last index of the middle
// instruction, and at the run's last index: every one for the register
// row and the drops, two each for the scratch rows, one or two per
// constant row.
func dormancySites(l uprog.Layout, p faults.Profile, mid markedStep) []faults.Fault {
	first, last, end := mid.before.Accesses, mid.after.Accesses-1, p.Accesses-1
	flip := func(row int, seq uint64) faults.Fault {
		return faults.Fault{Kind: faults.KindBitFlip, Row: row, Col: l.N - 1, Seq: seq}
	}
	reg, sel, s0 := l.RegRow(mid.in.Vs1, 0), l.ScratchRow(4, 0), l.ScratchRow(0, l.Segs-1)
	out := []faults.Fault{
		flip(reg, 0), flip(reg, first), flip(reg, last), flip(reg, end),
		flip(sel, first), flip(sel, last), flip(s0, 0), flip(s0, end),
		flip(l.ZeroRow(), first), flip(l.OneRow(), last), flip(l.SignRow(), 0), flip(l.SignRow(), end),
	}
	for _, seq := range []uint64{0, mid.before.BLCs, max(mid.after.BLCs, 1) - 1, p.BLCs - 1} {
		out = append(out, faults.Fault{Kind: faults.KindWordlineDrop, Seq: seq})
	}
	return append(out,
		faults.Fault{Kind: faults.KindStuckSA, Col: 0, Stuck: true},
		faults.Fault{Kind: faults.KindStuckSA, Col: l.N - 1},
		faults.Fault{Kind: faults.KindStuckSA, Col: p.Cols/2 + 1, Stuck: true},
		faults.Fault{Kind: faults.KindStuckSA, Col: p.Cols - 1})
}

// TestDormantMatchesLive holds dormancy to the always-live oracle over the
// small suite at n ∈ {1, 8, 32} (8 alone under -short): for every site
// dormancySites names, a Datapath and AlwaysLive give the same cycles,
// error and checksum, the inputs Classify decides the outcome from.
func TestDormantMatchesLive(t *testing.T) {
	for _, n := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if testing.Short() && n != 8 {
				t.Skip("-short keeps only n=8")
			}
			dormantMatchesLive(t, n)
		})
	}
}

func dormantMatchesLive(t *testing.T, n int) {
	cfg := sim.Config{Kind: sim.SysO3EVE, N: n}
	for _, k := range workloads.Small() {
		var marks *stepMarks
		base, baseSum := sim.RunDatapath(cfg, k, func(hwvl int) isa.Datapath {
			marks = &stepMarks{Datapath: faults.NewDatapath(n, hwvl, 0)}
			return marks
		})
		if base.Err != nil || len(marks.steps) == 0 {
			t.Fatalf("%s: baseline %v, %d micro-program steps", k.Name, base.Err, len(marks.steps))
		}
		mid := marks.steps[len(marks.steps)/2]
		for _, f := range dormancySites(uprog.NewLayout(n), marks.Profile(), mid) {
			dormant, live := runCell(cfg, k, f, false), runCell(cfg, k, f, true)
			if dormant != live {
				t.Errorf("%s %v (baseline checksum %#x): dormant %+v, always live %+v", k.Name, f, baseSum, dormant, live)
			}
		}
	}
}

// TestCampaignDormantMatchesLive: a campaign under the tightest watchdog
// budget its baselines pass writes the same report bytes on Datapath as on
// AlwaysLive. A cell whose fault steers the kernel into a longer program
// trips the engine's watchdog before the datapath runs it, so skipping
// programs cannot change which cells trip.
func TestCampaignDormantMatchesLive(t *testing.T) {
	kernels := workloads.Small()[:4]
	cfg := faults.Config{
		System:         sim.Config{Kind: sim.SysO3EVE, N: 8},
		Kernels:        kernels,
		SitesPerKernel: 6,
		Seed:           3,
		Workers:        1,
	}
	// The smallest budget every kernel's golden run fits.
	lo, hi := 1, uprog.DefaultMaxCycles
	for lo < hi {
		mid := (lo + hi) / 2
		cfg.System.MaxUProgCycles = mid
		fits := true
		for _, k := range kernels {
			fits = fits && sim.Run(cfg.System, k).Err == nil
		}
		if fits {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cfg.System.MaxUProgCycles = lo
	report := func(run func(faults.Config) (*faults.Report, error)) []byte {
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("budget %d: %v", lo, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if dormant, live := report(faults.Run), report(faults.RunAlwaysLive); !bytes.Equal(dormant, live) {
		t.Fatalf("budget %d: dormant report\n%s\nalways-live report\n%s", lo, dormant, live)
	}
	cfg.System.MaxUProgCycles = lo - 1
	if _, err := faults.Run(cfg); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("budget %d, one under the tightest: %v, want a watchdog trip", lo-1, err)
	}
}

// TestProgramCountsMatchLive: for every micro-program sequence plan emits
// (each native op, .vv and .vx, masked or not, every .vx shift amount) at
// every n, the memoized access and blc counts equal what a live run of it
// ticks, at VL 0 and at full VL.
func TestProgramCountsMatchLive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		hwvl := 128 / n
		dp := faults.NewDatapath(n, hwvl, 0)
		golden := make([]uint32, hwvl)
		check := func(in isa.Instr) {
			acc, blcs := dp.PlanCounts(&in)
			if acc == 0 {
				t.Fatalf("n=%d %+v: no memoized accesses", n, in)
			}
			for _, vl := range []int{0, hwvl} {
				in.VL = vl
				before := dp.Profile()
				dp.Exec(&in, golden)
				after := dp.Profile()
				if got := after.Accesses - before.Accesses; got != acc {
					t.Errorf("n=%d %+v: %d accesses live, %d memoized", n, in, got, acc)
				}
				if got := after.BLCs - before.BLCs; got != blcs {
					t.Errorf("n=%d %+v: %d blcs live, %d memoized", n, in, got, blcs)
				}
			}
		}
		for _, o := range activeColumnOps {
			for _, masked := range []bool{false, true} {
				in := isa.Instr{Op: o.op, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, Masked: masked, Scalar: 0x9E3779B9}
				check(in)
				if !o.vx {
					continue
				}
				in.Kind = isa.KindVX
				switch o.op {
				case isa.OpSll, isa.OpSrl, isa.OpSra:
					for k := uint32(0); k < 32; k++ {
						in.Scalar = k
						check(in)
					}
				default:
					check(in)
				}
			}
		}
	}
}

// TestDormancySkips pins what dormancy saves: with a wordline drop at
// vvadd's last bit-line compute, only the instruction it fires in runs
// live (at most a handful, however the kernel changes), while a stuck
// column in element 0 keeps every micro-program live and one past every
// instruction's VL keeps none live.
func TestDormancySkips(t *testing.T) {
	cfg := sim.Config{Kind: sim.SysO3EVE, N: 8}
	k := workloads.NewVVAdd(1 << 14)
	_, _, base := runWith(t, cfg, k, nil)
	all := base.LiveRuns()
	if all < 10 {
		t.Fatalf("fault-free vvadd runs %d micro-programs, too few to show a saving", all)
	}
	_, _, dp := runWith(t, cfg, k, &faults.Fault{Kind: faults.KindWordlineDrop, Seq: base.Profile().BLCs - 1})
	t.Logf("drop at the last bit-line compute: %d of %d instructions live", dp.LiveRuns(), all)
	if got := dp.LiveRuns(); got < 1 || got > 3 {
		t.Errorf("drop at the last bit-line compute: %d instructions live of %d, want 1 to 3", got, all)
	}
	_, _, dp = runWith(t, cfg, k, &faults.Fault{Kind: faults.KindStuckSA, Col: 5})
	if got := dp.LiveRuns(); got != all {
		t.Errorf("stuck column in element 0: %d instructions live, want all %d", got, all)
	}
	short := workloads.NewVVAdd(100) // one strip at VL 100
	_, _, base = runWith(t, cfg, short, nil)
	if base.Profile().Cols <= 100*cfg.N {
		t.Fatalf("hwvl %d does not exceed VL 100", base.Profile().Cols/cfg.N)
	}
	_, _, dp = runWith(t, cfg, short, &faults.Fault{Kind: faults.KindStuckSA, Col: base.Profile().Cols - 1})
	if got := dp.LiveRuns(); got != 0 {
		t.Errorf("stuck column past VL: %d instructions live, want 0", got)
	}
}

// TestArmAfterExecPanics: a fault armed once instructions have run could
// land in a stretch the datapath already skipped, so Arm refuses it.
func TestArmAfterExecPanics(t *testing.T) {
	dp := faults.NewDatapath(8, 64, 0)
	dp.Arm(faults.Fault{Kind: faults.KindWordlineDrop, Seq: 100})
	dp.Exec(&isa.Instr{Op: isa.OpAdd, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: 64}, make([]uint32, 64))
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "after the first Exec") {
			t.Fatalf("Arm after Exec: recovered %v, want a panic", p)
		}
	}()
	dp.Arm(faults.Fault{Kind: faults.KindBitFlip, Row: 3, Col: 5, Seq: 1000})
}

// tap passes a builder's datapath calls through and logs a copy of every
// result the builder adopts (nil stays nil).
type tap struct {
	isa.Datapath
	log [][]uint32
}

func (t *tap) Exec(in *isa.Instr, golden []uint32) []uint32 {
	out := t.Datapath.Exec(in, golden)
	t.log = append(t.log, slices.Clone(out))
	return out
}

func (t *tap) Read(r int) []uint32 {
	out := t.Datapath.Read(r)
	t.log = append(t.log, slices.Clone(out))
	return out
}

// dormantFault builds FuzzDormantWindow's fault. kind selects none, a bit
// flip, a stuck column or a wordline drop; a flip sits on a register,
// scratch or constant row by rowClass, row picking which; seq is reduced
// modulo one past the fault-free run's accesses or bit-line computes, so
// it can name any index of the run and one past its end.
func dormantFault(l uprog.Layout, p faults.Profile, kind, rowClass uint8, row, col uint16, seq uint32) *faults.Fault {
	f := &faults.Fault{Col: int(col), Stuck: row&1 != 0}
	switch kind % 4 {
	case 0:
		return nil
	case 1:
		f.Kind, f.Seq = faults.KindBitFlip, uint64(seq)%(p.Accesses+1)
		regRows, scratchRows := l.Regs*l.Segs, l.Scratch*l.Segs
		switch rowClass % 3 {
		case 0:
			f.Row = int(row) % regRows
		case 1:
			f.Row = regRows + int(row)%scratchRows
		case 2:
			f.Row = l.ZeroRow() + int(row)%3
		}
	case 2:
		f.Kind = faults.KindStuckSA
	case 3:
		f.Kind, f.Seq = faults.KindWordlineDrop, uint64(seq)%(p.BLCs+1)
	}
	return f
}

// FuzzDormantWindow holds dormancy to the always-live oracle. Two builders
// run the same random program (FuzzMirrorSync's ops and encoding: ROM ops,
// every sync consumer and the data-port installs, VL 0 to hwvl, v0-v7),
// one on a Datapath and one on AlwaysLive, with the same fault armed on
// both (dormantFault). After every instruction the Exec and Read results
// each builder adopted, the scalar read, the memory images and all 32
// registers must agree. The seeds cover each kind and each row class, with
// flips and drops at the run's first index, the first and last index of
// its middle instruction (a masked vmin, so s5's merge runs), its last
// index and one past it.
func FuzzDormantWindow(f *testing.F) {
	const n, full = 8, 255
	prog := slices.Concat(
		encodeMirrorInstr("vle32", 1, 0, 0, full, 3),
		encodeMirrorInstr("vle32", 2, 0, 0, full, 9),
		encodeMirrorInstr("vadd.vv", 3, 1, 2, 200, 0),
		encodeMirrorInstr("vmin.vv", 4, 3, 2, full, 0),
		encodeMirrorInstr("vmacc.vx", 5, 4, 0, 130, 7),
		encodeMirrorInstr("vse32", 5, 0, 0, full, 1),
		encodeMirrorInstr("vredsum", 6, 5, 3, full, 0))
	prog[3*5+1] |= 0x40 // the vmin is masked
	clean := newMirrorRun(n, 512/n, direct, nil, 1)
	var marks []faults.Profile
	for _, in := range decodeMirrorProg(prog, 512/n, 12) {
		marks = append(marks, clean.dp.Profile())
		clean.step(in)
	}
	end := clean.dp.Profile()
	first, last := marks[3], marks[4]
	for _, seq := range []uint64{0, first.Accesses, last.Accesses - 1, end.Accesses - 1, end.Accesses} {
		for class := uint8(0); class < 3; class++ {
			f.Add(uint8(3), uint8(1), class, uint16(7), uint16(5*n+2), uint32(seq), int64(1), prog)
		}
	}
	for _, seq := range []uint64{0, first.BLCs, last.BLCs - 1, end.BLCs - 1, end.BLCs} {
		f.Add(uint8(3), uint8(3), uint8(0), uint16(0), uint16(0), uint32(seq), int64(1), prog)
	}
	f.Add(uint8(3), uint8(2), uint8(0), uint16(1), uint16(5*n), uint32(0), int64(1), prog)
	f.Add(uint8(3), uint8(0), uint8(0), uint16(0), uint16(0), uint32(0), int64(1), prog)

	f.Fuzz(func(t *testing.T, nSel, kind, rowClass uint8, row, col uint16, seq uint32, dataSeed int64, prog []byte) {
		n := []int{1, 2, 4, 8, 16, 32}[int(nSel)%6]
		hwvl := 512 / n
		instrs := decodeMirrorProg(prog, hwvl, 12)

		clean := newMirrorRun(n, hwvl, direct, nil, dataSeed)
		for _, in := range instrs {
			if _, crash := clean.step(in); crash != "" {
				break
			}
		}
		fault := dormantFault(uprog.NewLayout(n), clean.dp.Profile(), kind, rowClass, row, col, seq)

		var dormant, live *tap
		dr := newMirrorRun(n, hwvl, func(dp *faults.Datapath) isa.Datapath {
			dormant = &tap{Datapath: dp}
			return dormant
		}, fault, dataSeed)
		lr := newMirrorRun(n, hwvl, func(dp *faults.Datapath) isa.Datapath {
			live = &tap{Datapath: alwaysLive(dp)}
			return live
		}, fault, dataSeed)
		for i, in := range instrs {
			where := fmt.Sprintf("n=%d %v step %d (%s v%d, v%d, v%d, VL %d, masked %v)", n, fault, i, in.op.name, in.vd, in.vs1, in.vs2, in.vl, in.masked)
			dx, dcrash := dr.step(in)
			lx, lcrash := lr.step(in)
			if dx != lx || dcrash != lcrash {
				t.Fatalf("%s: read %#x (crash %q), always live %#x (crash %q)", where, dx, dcrash, lx, lcrash)
			}
			if len(dormant.log) != len(live.log) {
				t.Fatalf("%s: %d datapath calls, always live %d", where, len(dormant.log), len(live.log))
			}
			for c := range dormant.log {
				d, l := dormant.log[c], live.log[c]
				if (d == nil) != (l == nil) || firstDiff(d, l) >= 0 {
					t.Fatalf("%s: datapath call %d returned %v, always live %v", where, c, d, l)
				}
			}
			for a := uint64(64); a < mirrorMem; a += 4 {
				if d, l := dr.b.Mem.LoadU32(a), lr.b.Mem.LoadU32(a); d != l {
					t.Fatalf("%s: memory word %#x = %#x, always live %#x", where, a, d, l)
				}
			}
			for r := 0; r < 32; r++ {
				d, l := dr.b.VReg(r), lr.b.VReg(r)
				if e := firstDiff(d, l); e >= 0 {
					t.Fatalf("%s: v%d element %d = %#x, always live %#x", where, r, e, d[e], l[e])
				}
			}
			if dcrash != "" {
				return
			}
		}
	})
}
