package check

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/uop"
	"repro/internal/uprog"
)

// TestROMSweepClean is the acceptance gate: every generator × operand shape ×
// layout × masked/unmasked verifies with zero violations, and the static
// cycle count sits under the default watchdog budget.
func TestROMSweepClean(t *testing.T) {
	cases := AllCases()
	if len(cases) < 500 {
		t.Fatalf("sweep shrank to %d cases; the ROM enumeration is incomplete", len(cases))
	}
	for _, c := range cases {
		rep := Program(c.Prog, c.Spec)
		if !rep.OK() {
			for _, v := range rep.Violations {
				t.Errorf("%s: %s", c.Name, v)
			}
			continue
		}
		if rep.Cycles < 1 {
			t.Errorf("%s: static cycle count %d", c.Name, rep.Cycles)
		}
		if rep.Cycles >= uprog.DefaultMaxCycles {
			t.Errorf("%s: static cycle count %d not under the %d-cycle watchdog",
				c.Name, rep.Cycles, uprog.DefaultMaxCycles)
		}
	}
}

// TestMaskedFirstDefsArePinned pins, across the whole ROM, the precondition
// of faults.Datapath's active-column window (DESIGN.md, modeling decision
// 10): the only scratch rows first defined by a masked write are the s5
// rows of the masked vmin/vmax/vminu/vmaxu merge, every segment of them, and
// no latch is first written by a masked μop. A generator that adds another
// masked first definition fails here, and its author must check that the
// window rule still makes windowed execution exact for it.
func TestMaskedFirstDefsArePinned(t *testing.T) {
	minMax := map[string]bool{"vmin": true, "vmax": true, "vminu": true, "vmaxu": true}
	pinned := 0
	for _, c := range AllCases() {
		rep := Program(c.Prog, c.Spec)
		if rep.MaskedLatchDefs != 0 {
			t.Errorf("%s: latches %v first written by a masked μop", c.Name, rep.MaskedLatchDefs)
		}
		l := c.Spec.Layout
		want := map[int]bool{}
		if op, _, _ := strings.Cut(c.Name, "/"); minMax[op] && strings.HasSuffix(c.Name, "/m") {
			pinned++
			for s := 0; s < l.Segs; s++ {
				want[l.ScratchRow(5, s)] = true
			}
		}
		got := map[int]bool{}
		for _, row := range rep.MaskedRowDefs {
			got[row] = true
		}
		if len(got) != len(rep.MaskedRowDefs) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scratch rows first defined by a masked write %v, want %v", c.Name, rep.MaskedRowDefs, want)
		}
	}
	if pinned != 24 {
		t.Errorf("%d masked min/max programs, want 24 (4 ops at 6 factors)", pinned)
	}
}

// TestMaskedFirstDefsRecorded: a masked write to an undefined scratch row is
// recorded as data, not reported as a violation, while an unmasked first
// definition and a masked rewrite are not recorded. A masked shift of
// undefined shifters is recorded too (alongside its liveness violations).
func TestMaskedFirstDefsRecorded(t *testing.T) {
	l := uprog.NewLayout(8)
	s0, s1 := l.ScratchRow(0, 0), l.ScratchRow(1, 0)
	p := prog("masked-first-def",
		arith(uop.Arith{Kind: uop.ARead, A: uop.Row(l.RegRow(0, 0)), Dst: uop.DstMask}),
		arith(uop.Arith{Kind: uop.AWrite, A: uop.Row(s0), Src: uop.SrcOnes, Masked: true}),
		arith(uop.Arith{Kind: uop.AWrite, A: uop.Row(s1), Src: uop.SrcZero}),
		arith(uop.Arith{Kind: uop.AWrite, A: uop.Row(s0), Src: uop.SrcZero, Masked: true}),
		arith(uop.Arith{Kind: uop.AWrite, A: uop.Row(s1), Src: uop.SrcOnes, Masked: true}),
		retTuple(),
	)
	rep := Program(p, Spec{Layout: l, Reads: []int{0}})
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	if !reflect.DeepEqual(rep.MaskedRowDefs, []int{s0}) || rep.MaskedLatchDefs != 0 {
		t.Fatalf("masked first defs: rows %v, latches %v; want rows [%d] and none", rep.MaskedRowDefs, rep.MaskedLatchDefs, s0)
	}

	shift := prog("masked-shift-first-def",
		arith(uop.Arith{Kind: uop.ARead, A: uop.Row(l.RegRow(0, 0)), Dst: uop.DstMask}),
		arith(uop.Arith{Kind: uop.ALShift, Masked: true}),
		retTuple(),
	)
	rep = Program(shift, Spec{Layout: l, Reads: []int{0}})
	if want := uop.Latches(uop.LatchCShift, uop.LatchSpare); rep.MaskedLatchDefs != want {
		t.Fatalf("masked shift: latches %v, want %v", rep.MaskedLatchDefs, want)
	}
}

// TestStaticCyclesMatchMachine cross-checks the abstract interpretation
// against the real sequencer: micro-programs are data-independent, so the
// static count must equal Machine.CountCycles exactly, for every case.
func TestStaticCyclesMatchMachine(t *testing.T) {
	for _, c := range AllCases() {
		rep := Program(c.Prog, c.Spec)
		m := uprog.NewMachine(c.Spec.Layout.N, 2)
		got := m.CountCycles(c.Prog)
		if rep.Cycles != got {
			t.Errorf("%s: static %d cycles, machine %d", c.Name, rep.Cycles, got)
		}
	}
}

// TestStaticBoundCoversGoldenLatencies pins the static bound against the
// measured golden table (latency_test.go): the bound must never be below a
// measured count, and — the interpretation being exact — must equal it.
func TestStaticBoundCoversGoldenLatencies(t *testing.T) {
	factors := []int{1, 2, 4, 8, 16, 32}
	golden := map[string][6]int{
		"copy":  {66, 34, 18, 10, 6, 4},
		"add":   {67, 35, 19, 11, 7, 5},
		"sub":   {132, 68, 36, 20, 12, 8},
		"xor":   {66, 34, 18, 10, 6, 4},
		"slt":   {298, 154, 82, 46, 28, 16},
		"max":   {432, 224, 120, 68, 42, 26},
		"sll7":  {58, 80, 94, 107, 61, 38},
		"srlvv": {430, 242, 170, 150, 154, 182},
		"mul":   {5605, 2917, 1573, 901, 565, 397},
		"mulhu": {10788, 5652, 3156, 2052, 1788, 2232},
		"divu":  {7813, 4149, 2341, 1485, 1153, 1179},
		"merge": {135, 71, 39, 23, 15, 11},
	}
	const d, a, b = 3, 1, 2
	gens := map[string]func(l uprog.Layout) (*uop.Program, Spec){
		"copy": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.Copy(l, d, a, false), Spec{Layout: l, Reads: []int{a}, Writes: []int{d}}
		},
		"add": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.Add(l, d, a, b, false), Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}}
		},
		"sub": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.Sub(l, d, a, b, false), Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}}
		},
		"xor": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.Logic(l, uop.SrcXor, d, a, b, false), Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}}
		},
		"slt": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.Compare(l, uprog.CmpLt, d, a, b, false), Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}}
		},
		"max": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.MinMax(l, true, true, d, a, b, false), Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}}
		},
		"sll7": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.ShiftImm(l, uprog.ShSLL, d, a, 7, false), Spec{Layout: l, Reads: []int{a}, Writes: []int{d}}
		},
		"srlvv": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.ShiftVV(l, uprog.ShSRL, d, a, b, false), Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}}
		},
		"mul": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.Mul(l, d, a, b, false, false), Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}}
		},
		"mulhu": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.MulH(l, d, a, b, false), Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}}
		},
		"divu": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.DivRem(l, uprog.DivU, d, a, b, false),
				Spec{Layout: l, Reads: []int{a, b}, Writes: []int{d}, ExtRows: l.N}
		},
		"merge": func(l uprog.Layout) (*uop.Program, Spec) {
			return uprog.Merge(l, d, a, b), Spec{Layout: l, Reads: []int{0, a, b}, Writes: []int{d}}
		},
	}
	for name, want := range golden {
		for i, n := range factors {
			l := uprog.NewLayout(n)
			p, spec := gens[name](l)
			rep := Program(p, spec)
			if rep.Cycles < want[i] {
				t.Errorf("%s at EVE-%d: static bound %d below the measured %d cycles",
					name, n, rep.Cycles, want[i])
			} else if rep.Cycles != want[i] {
				t.Errorf("%s at EVE-%d: static bound %d, measured %d — the interpretation should be exact",
					name, n, rep.Cycles, want[i])
			}
			if rep.Cycles >= uprog.DefaultMaxCycles {
				t.Errorf("%s at EVE-%d: bound %d not under the watchdog", name, n, rep.Cycles)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Broken-program fixtures: each checker pass has a deliberately broken
// program pinning the exact diagnostic it produces.

// wantViolation asserts that exactly the expected violation (pass, pc and
// message) is among the report's findings.
func wantViolation(t *testing.T, rep *Report, want Violation) {
	t.Helper()
	for _, v := range rep.Violations {
		if v == want {
			return
		}
	}
	t.Errorf("%s: violation %q not found; got:", rep.Program, want)
	for _, v := range rep.Violations {
		t.Errorf("  %s", v)
	}
}

func fixtureSpec(l uprog.Layout) Spec {
	return Spec{Layout: l, Reads: []int{1, 2}, Writes: []int{3}}
}

// tuples shorthand.
func prog(name string, ts ...uop.Tuple) *uop.Program {
	return &uop.Program{Name: name, Tuples: ts}
}

func arith(op uop.Arith) uop.Tuple { return uop.Tuple{Arith: op} }

func retTuple() uop.Tuple { return uop.Tuple{Ctl: uop.Ctl{Kind: uop.LRet}} }

func TestBoundsRowOutOfRange(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-oob",
		arith(uop.Arith{Kind: uop.ABLC, A: uop.Row(l.Rows()), B: uop.Row(l.RegRow(1, 0))}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassBounds, 0,
		"row 159 (ref r159) outside the layout's 159 rows"})
}

func TestBoundsConstantRowWrite(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-const-write",
		arith(uop.Arith{Kind: uop.AWrite, A: uop.Row(l.OneRow()), Src: uop.SrcZero}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassBounds, 0,
		"writes constant row 157 (the one row)"})
}

func TestBoundsUndeclaredOperands(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-operands",
		arith(uop.Arith{Kind: uop.ABLC, A: uop.Row(l.RegRow(9, 0)), B: uop.Row(l.RegRow(1, 0))}),
		arith(uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow,
			DstR: uop.Row(l.RegRow(10, 0)), Src: uop.SrcAnd}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassBounds, 0,
		"reads register v9, which is not a declared operand"})
	wantViolation(t, rep, Violation{PassBounds, 1,
		"writes register v10, which is not a declared destination"})
}

func TestBoundsBroadcastScratchUndeclared(t *testing.T) {
	l := uprog.NewLayout(8)
	row := uop.Row(l.ScratchRow(uprog.BroadcastScratch, 0))
	p := prog("broken-broadcast",
		arith(uop.Arith{Kind: uop.ABLC, A: row, B: row}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassBounds, 0,
		"reads the reserved broadcast scratch register without declaring it"})

	// Declaring it (a .vx prologue staged the scalar) clears the finding.
	spec := fixtureSpec(l)
	spec.Reads = append(spec.Reads, l.ScratchID(uprog.BroadcastScratch))
	if rep := Program(p, spec); !rep.OK() {
		t.Errorf("declared broadcast read still flagged: %v", rep.Violations)
	}
}

func TestBoundsExtRowOutOfRange(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-ext",
		arith(uop.Arith{Kind: uop.AWrite, A: uop.Row(l.RegRow(3, 0)),
			Src: uop.SrcExt, ExtR: uop.Ext(2)}),
		retTuple(),
	)
	spec := fixtureSpec(l)
	spec.ExtRows = 2
	rep := Program(p, spec)
	wantViolation(t, rep, Violation{PassBounds, 0,
		"data_in row 2 out of range: the VSU drives 2 rows"})
}

func TestLiveScratchReadBeforeWrite(t *testing.T) {
	l := uprog.NewLayout(8)
	row := uop.Row(l.ScratchRow(0, 1))
	p := prog("broken-scratch-live",
		arith(uop.Arith{Kind: uop.ABLC, A: row, B: row}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassLive, 0,
		"reads scratch s0 segment 1 before any write"})
}

func TestLiveWritebackWithoutBLC(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-no-blc",
		arith(uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow,
			DstR: uop.Row(l.RegRow(3, 0)), Src: uop.SrcAnd}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassLive, 0,
		"writeback source and has no live bit-line compute result"})
}

func TestLiveSenseInvalidatedByRead(t *testing.T) {
	l := uprog.NewLayout(8)
	a := uop.Row(l.RegRow(1, 0))
	p := prog("broken-sense-clobber",
		arith(uop.Arith{Kind: uop.ABLC, A: a, B: a}),
		arith(uop.Arith{Kind: uop.ARead, A: a, Dst: uop.DstXReg}),
		arith(uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow,
			DstR: uop.Row(l.RegRow(3, 0)), Src: uop.SrcAnd}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassLive, 2,
		"writeback source and has no live bit-line compute result"})
}

func TestLiveCarryUndefinedAtBLC(t *testing.T) {
	l := uprog.NewLayout(8)
	a, b := uop.Row(l.RegRow(1, 0)), uop.Row(l.RegRow(2, 0))
	// An add writeback whose blc ran before any carry initialization: the
	// adder captured an undefined carry-in.
	p := prog("broken-carry",
		arith(uop.Arith{Kind: uop.ABLC, A: a, B: b}),
		arith(uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow,
			DstR: uop.Row(l.RegRow(3, 0)), Src: uop.SrcAdd}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassLive, 1,
		"add writeback: the carry latch was undefined at the bit-line compute"})
}

func TestLiveLatchReadBeforeLoad(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-latch",
		arith(uop.Arith{Kind: uop.ALShift}),
		arith(uop.Arith{Kind: uop.AMaskShift}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassLive, 0, "reads the cshift latch before it is loaded"})
	wantViolation(t, rep, Violation{PassLive, 0, "reads the spare latch before it is loaded"})
	wantViolation(t, rep, Violation{PassLive, 1, "reads the xreg latch before it is loaded"})
}

func TestMaskedWriteWithoutMaskLoad(t *testing.T) {
	l := uprog.NewLayout(8)
	a := uop.Row(l.RegRow(1, 0))
	p := prog("broken-mask",
		arith(uop.Arith{Kind: uop.ABLC, A: a, B: a}),
		arith(uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow,
			DstR: uop.Row(l.RegRow(3, 0)), Src: uop.SrcAnd, Masked: true}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassMask, 1,
		"masked wb before any mask load (power-up mask state)"})
}

func TestMaskClobberedMidLoop(t *testing.T) {
	l := uprog.NewLayout(8)
	a, b := uop.Row(l.RegRow(1, 0)), uop.Row(l.RegRow(2, 0))
	d := uop.Row(l.RegRow(3, 0))
	// Mask loaded from v1 before the loop (pc 0-1); the loop body performs a
	// masked write (pc 3-4), then reloads the mask from v2 (pc 5-6) before
	// branching back: trip 2's masked write sees a different mask than trip
	// 1's — the classic mid-loop clobber.
	p := prog("broken-mask-clobber",
		arith(uop.Arith{Kind: uop.ABLC, A: a, B: a}),
		arith(uop.Arith{Kind: uop.AWriteback, Dst: uop.DstMask, Src: uop.SrcAnd, Spread: uop.SpreadLSB}),
		uop.Tuple{Ctr: uop.Ctr{Kind: uop.CInit, Cnt: uop.Seg0, Val: 3}},
		arith(uop.Arith{Kind: uop.ABLC, A: a, B: b}),
		arith(uop.Arith{Kind: uop.AWriteback, Dst: uop.DstRow, DstR: d, Src: uop.SrcAnd, Masked: true}),
		arith(uop.Arith{Kind: uop.ABLC, A: b, B: b}),
		uop.Tuple{
			Arith: uop.Arith{Kind: uop.AWriteback, Dst: uop.DstMask, Src: uop.SrcAnd, Spread: uop.SpreadLSB},
			Ctr:   uop.Ctr{Kind: uop.CDecr, Cnt: uop.Seg0},
			Ctl:   uop.Ctl{Kind: uop.LBnz, Cnt: uop.Seg0, Target: 3},
		},
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassMask, 4,
		"mask clobbered mid-loop: consumed here but loaded at 2 different sites [1 6] across trips"})
}

func TestStructBranchTargetOutOfRange(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-target",
		uop.Tuple{Ctl: uop.Ctl{Kind: uop.LJmp, Target: 7}},
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassStruct, 0,
		"branch target 7 outside the program [0,2)"})
	if rep.Cycles != -1 {
		t.Errorf("fatal structural finding should stop the run; Cycles = %d", rep.Cycles)
	}
}

func TestStructMissingRet(t *testing.T) {
	l := uprog.NewLayout(8)
	a := uop.Row(l.RegRow(1, 0))
	p := prog("broken-no-ret",
		arith(uop.Arith{Kind: uop.ARead, A: a, Dst: uop.DstXReg}),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassStruct, 0,
		"control falls off the end of the program (missing ret)"})
	wantViolation(t, rep, Violation{PassStruct, -1, "no reachable ret"})
}

func TestStructEmptyProgram(t *testing.T) {
	rep := Program(prog("broken-empty"), fixtureSpec(uprog.NewLayout(8)))
	wantViolation(t, rep, Violation{PassStruct, -1, "empty program: no tuples, no ret"})
}

func TestStructUnreachableTuple(t *testing.T) {
	l := uprog.NewLayout(8)
	a := uop.Row(l.RegRow(1, 0))
	p := prog("broken-unreachable",
		uop.Tuple{Ctl: uop.Ctl{Kind: uop.LJmp, Target: 2}},
		arith(uop.Arith{Kind: uop.ARead, A: a, Dst: uop.DstXReg}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassStruct, 1, "unreachable tuple"})
}

func TestStructCounterBeforeInit(t *testing.T) {
	l := uprog.NewLayout(8)
	a := uop.Row(l.RegRow(1, 0))
	// The bnz consults a different counter than the decr: reporting a
	// before-init use marks the counter initialized to suppress cascades,
	// so two findings on one counter at one pc collapse into the first.
	p := prog("broken-counter",
		arith(uop.Arith{Kind: uop.ARead, A: uop.RowBy(a.Base, uop.Seg2, 1), Dst: uop.DstXReg}),
		uop.Tuple{
			Ctr: uop.Ctr{Kind: uop.CDecr, Cnt: uop.Seg3},
			Ctl: uop.Ctl{Kind: uop.LBnz, Cnt: uop.Seg1, Target: 2},
		},
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassStruct, 0,
		"row ref r4+1*i(seg_cnt[2]) used before seg_cnt[2] is initialized"})
	wantViolation(t, rep, Violation{PassStruct, 1, "decr of seg_cnt[3] before any init"})
	wantViolation(t, rep, Violation{PassStruct, 1, "bnz consults seg_cnt[1] before any init"})
}

func TestStructInterleavedLoops(t *testing.T) {
	l := uprog.NewLayout(8)
	a := uop.Row(l.RegRow(1, 0))
	rdT := arith(uop.Arith{Kind: uop.ARead, A: a, Dst: uop.DstXReg})
	// Region [0,2] (bnz at 2 → 0) and region [1,3] (bnz at 3 → 1) interleave.
	p := prog("broken-interleave",
		uop.Tuple{Ctr: uop.Ctr{Kind: uop.CInit, Cnt: uop.Seg0, Val: 2}},
		uop.Tuple{Ctr: uop.Ctr{Kind: uop.CInit, Cnt: uop.Seg1, Val: 2}},
		uop.Tuple{
			Arith: rdT.Arith,
			Ctr:   uop.Ctr{Kind: uop.CDecr, Cnt: uop.Seg0},
			Ctl:   uop.Ctl{Kind: uop.LBnz, Cnt: uop.Seg0, Target: 0},
		},
		uop.Tuple{
			Ctr: uop.Ctr{Kind: uop.CDecr, Cnt: uop.Seg1},
			Ctl: uop.Ctl{Kind: uop.LBnz, Cnt: uop.Seg1, Target: 1},
		},
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassStruct, 3,
		"loops [0,2] and [1,3] interleave without nesting"})
}

func TestStructBadTripCount(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-trip",
		uop.Tuple{Ctr: uop.Ctr{Kind: uop.CInit, Cnt: uop.Seg0, Val: 0}},
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassStruct, 0,
		"init seg_cnt[0] with trip count 0; loops need a count >= 1"})
}

func TestStructInvalidArith(t *testing.T) {
	l := uprog.NewLayout(8)
	a := uop.Row(l.RegRow(1, 0))
	p := prog("broken-arith",
		arith(uop.Arith{Kind: uop.ARead, A: a, Dst: uop.DstCarry}),
		retTuple(),
	)
	rep := Program(p, fixtureSpec(l))
	wantViolation(t, rep, Violation{PassStruct, 0,
		"invalid arithmetic μop: rd cannot target carry"})
	if rep.Cycles != -1 {
		t.Errorf("fatal structural finding should stop the run; Cycles = %d", rep.Cycles)
	}
}

func TestCyclesRunawayLoop(t *testing.T) {
	l := uprog.NewLayout(8)
	p := prog("broken-runaway",
		uop.Tuple{Ctl: uop.Ctl{Kind: uop.LJmp, Target: 0}},
		retTuple(),
	)
	spec := fixtureSpec(l)
	spec.MaxCycles = 64
	rep := Program(p, spec)
	wantViolation(t, rep, Violation{PassCycles, 0,
		"exceeds the 64-cycle watchdog budget without returning"})
	if rep.Cycles != -1 {
		t.Errorf("budget exhaustion should report Cycles = -1, got %d", rep.Cycles)
	}
}

// TestViolationString pins the rendering the CLI emits.
func TestViolationString(t *testing.T) {
	v := Violation{PassBounds, 3, "boom"}
	if got := v.String(); got != "bounds@3: boom" {
		t.Errorf("violation string = %q", got)
	}
	v = Violation{PassStruct, -1, "no reachable ret"}
	if got := v.String(); got != "struct: no reachable ret" {
		t.Errorf("whole-program violation string = %q", got)
	}
}
