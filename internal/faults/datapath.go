package faults

import (
	"repro/internal/bitmat"
	"repro/internal/circuits"
	"repro/internal/isa"
	"repro/internal/sram"
	"repro/internal/uop"
	"repro/internal/uprog"
)

// Datapath executes vector instructions on a real EVE circuit stack,
// implementing isa.Datapath. Every operation the timing model costs with a
// micro-program (internal/eve.measureOp) runs that same
// micro-program here, against a machine sized to hold the full hardware
// vector length; .vx forms stage their scalar through the reserved
// broadcast scratch register exactly as the VSU does. Operations that move
// data through the ports rather than the arrays — loads, slides, gathers,
// reductions, scalar moves — install the builder's golden result through
// the transposed data port instead (the port itself is not a modeled fault
// site).
//
// Fault-free, the substrate reproduces the golden ISA semantics exactly;
// TestZeroFaultDatapathMatchesGolden holds that equivalence over the full
// benchmark suite. Faults armed through Arm corrupt the substrate, and the
// builder adopts whatever the arrays now hold.
//
// Read detransposes a register only when its cells may differ from the
// builder's mirror of it. The datapath keeps, per register, the write
// generation (uprog.Machine.Generation) at which the mirror last equalled
// the substrate, and Read returns nil while the register's generation
// still matches it (see Exec for how instructions keep it).
//
// A Datapath wraps single-threaded machine state and is not safe for
// concurrent use; campaigns build one per simulation.
type Datapath struct {
	mach  *uprog.Machine
	hwvl  int
	cols  int
	progs map[progKey]*uop.Program

	// Owned buffers, so a steady-state instruction allocates nothing.
	out  []uint32     // Exec and Read results, valid until the next call
	tail []bitmat.Row // vd's rows, saved around a partial-VL run
	runs [2]progRun   // plan's result

	// data_in environments: the .vx broadcast rows (refilled in place per
	// instruction), the saturation and division constants, and the SRA
	// sign-fill row for each partial-segment width (built on first use).
	bcast, sat, div circuits.Env
	topBits         []*circuits.Env

	// seen[r] is register r's generation when the builder's mirror of r
	// last equalled the substrate. Both start at zero, as do a new
	// builder's registers and a new substrate's cells.
	seen  [32]uint64
	reads int // Read's full data-port reads, for tests
}

// progKey identifies a cached micro-program. Unlike the timing model's
// costKey, it must include the concrete register operands: generated
// programs bake register row ids into their tuples, so a program built for
// one (d, a, b) triple cannot be reused for another.
type progKey struct {
	op      isa.Op
	vx      bool
	masked  bool
	imm     uint32
	d, a, b int
	bcast   bool // the .vx broadcast prologue program
}

// progRun is one micro-program plus the data_in environment it expects.
type progRun struct {
	p   *uop.Program
	env *circuits.Env
}

// NewDatapath builds a substrate for parallelization factor n holding hwvl
// elements. maxCycles is the per-micro-program watchdog budget (zero
// selects uprog.DefaultMaxCycles).
func NewDatapath(n, hwvl, maxCycles int) *Datapath {
	m := uprog.NewMachine(n, hwvl)
	m.MaxCycles = maxCycles
	l, cols := m.Layout, m.Stack.Array().Cols()
	dp := &Datapath{
		mach:    m,
		hwvl:    hwvl,
		cols:    cols,
		progs:   make(map[progKey]*uop.Program),
		out:     make([]uint32, hwvl),
		tail:    make([]bitmat.Row, l.Segs),
		bcast:   circuits.Env{ExtRows: uprog.BroadcastRows(l, cols, 0)},
		sat:     circuits.Env{ExtRows: uprog.SatConstRows(l, cols)},
		div:     circuits.Env{ExtRows: uprog.BitConstRows(l, cols)},
		topBits: make([]*circuits.Env, n),
	}
	for i := range dp.tail {
		dp.tail[i] = bitmat.NewRow(cols)
	}
	m.Generation(0) // generations count from here, with every register zero
	return dp
}

// Array exposes the backing SRAM array for fault arming and inspection.
func (dp *Datapath) Array() *sram.Array { return dp.mach.Stack.Array() }

// Stack exposes the peripheral circuit stack for fault arming.
func (dp *Datapath) Stack() *circuits.Stack { return dp.mach.Stack }

// Arm arms one fault on the substrate. Sites are reduced modulo the
// machine's geometry so a profile sampled on an identically configured run
// always lands in range. Faults must be armed before the first instruction
// executes: the active columns of every instruction up to a bit flip must
// cover the flip's element (window).
func (dp *Datapath) Arm(f Fault) {
	arr := dp.mach.Stack.Array()
	switch f.Kind {
	case KindBitFlip:
		arr.ArmBitFlip(f.Row%arr.Rows(), f.Col%arr.Cols(), f.Seq)
	case KindStuckSA:
		arr.SetColumnStuck(f.Col%arr.Cols(), f.Stuck)
	case KindWordlineDrop:
		dp.mach.Stack.ArmWordlineDrop(f.Seq)
	}
}

// Profile reports the substrate geometry and the access counts accumulated
// so far; measured on a fault-free run, it spans the sequence space Sites
// samples fault sites from.
func (dp *Datapath) Profile() Profile {
	arr := dp.mach.Stack.Array()
	return Profile{
		Rows:     arr.Rows(),
		Cols:     arr.Cols(),
		Accesses: arr.Accesses(),
		BLCs:     dp.mach.Stack.BLCs(),
	}
}

// Read implements isa.Datapath: the live substrate contents of register r,
// streamed out through the data port, or nil when r's cells have not changed
// since the builder's mirror last equalled them.
func (dp *Datapath) Read(r int) []uint32 {
	g := dp.mach.Generation(r)
	if g == dp.seen[r] {
		return nil
	}
	dp.seen[r] = g
	dp.reads++
	return dp.register(r)
}

// register streams register r's hwvl elements out through the data port.
func (dp *Datapath) register(r int) []uint32 {
	out := dp.out[:dp.hwvl]
	dp.mach.LoadElements(r, 0, out)
	return out
}

// Exec implements isa.Datapath. golden is the builder's architecturally
// correct result for the destination register; the return value is what the
// register actually holds after the substrate executed the instruction.
func (dp *Datapath) Exec(in *isa.Instr, golden []uint32) []uint32 {
	return dp.exec(in, golden, dp.window(in))
}

// exec runs in over the first active elements, or installs golden, and
// keeps vd's mirror rule. The builder adopts the returned register, whose
// elements below VL are the substrate's and whose tail is the mirror's own;
// the substrate's tail is untouched or restored from before the run. So the
// mirror stays current if it was current before, and becomes current when
// every element was read back or installed. Only element 0 of a reduction
// or vmv.s.x is installed, at any VL, so those never make a stale mirror
// current. Any other register whose cells changed during the run — a fired
// bit flip — stays stale until its next Read.
func (dp *Datapath) exec(in *isa.Instr, golden []uint32, active int) []uint32 {
	vd := in.Vd
	current := dp.seen[vd] == dp.mach.Generation(vd)
	out, full := golden, false
	if runs, ok := dp.plan(in); ok {
		out = dp.runNative(in, runs, golden, active)
		full = in.VL >= dp.hwvl
	} else {
		full = dp.install(in, golden) == dp.hwvl
	}
	if current || full {
		dp.seen[vd] = dp.mach.Generation(vd)
	}
	return out
}

// runNative executes the instruction's micro-program sequence over the
// column groups of the first active elements (uprog.Machine.SetActive),
// which cover the first VL elements the ISA writes. Micro-programs may write
// vd past VL, up to the active columns' word boundary, and an armed fault
// may corrupt any of its cells, so the destination's rows are saved around
// the run and their tail columns restored through the data port — the
// substrate equivalent of RVV's tail-undisturbed policy.
func (dp *Datapath) runNative(in *isa.Instr, runs []progRun, golden []uint32, active int) []uint32 {
	vd := in.Vd
	vl := min(in.VL, dp.hwvl)
	if vl < dp.hwvl {
		dp.mach.SaveRegister(vd, dp.tail)
	}
	dp.mach.SetActive(active)
	for _, r := range runs {
		dp.mach.Run(r.p, r.env)
	}
	if vl < dp.hwvl {
		dp.mach.RestoreTail(vd, vl, dp.tail)
	}
	dp.out = append(dp.out[:0], golden...)
	dp.mach.LoadElements(vd, 0, dp.out[:min(vl, len(dp.out))])
	return dp.out
}

// window returns how many elements an instruction runs over: its VL,
// widened to the element of every armed bit flip still to fire. Every μop is
// group-local and every micro-program defines each scratch row and latch
// before reading it, so columns outside the window cannot reach the first
// vl elements — with one exception. A masked first definition (the masked
// vmin/vmax merge into scratch s5; check.Report.MaskedRowDefs) covers every
// column only while its two mask loads stay complementary, and a flip on
// the selector between them leaves a column holding what an earlier
// instruction wrote there. Keeping the flip's element in every window until
// it fires makes that earlier value the one full-width execution would hold.
func (dp *Datapath) window(in *isa.Instr) int {
	n := dp.mach.Layout.N
	return max(min(in.VL, dp.hwvl), (dp.Array().FlipReach()+n-1)/n)
}

// install writes the golden result into the substrate through the data
// port — the path for operations whose data never crosses the arrays'
// compute structures (loads, slides, gathers, reduction and scalar-move
// writebacks, vid) — and reports how many elements, from element 0, it
// wrote.
func (dp *Datapath) install(in *isa.Instr, golden []uint32) int {
	k := min(in.VL, dp.hwvl, len(golden))
	switch in.Op {
	case isa.OpMvSX, isa.OpRedSum, isa.OpRedMin, isa.OpRedMax, isa.OpRedMinU, isa.OpRedMaxU:
		// These write element 0 only, and nothing at VL 0 (RVV 1.0 §14,
		// §16.1).
		k = min(k, 1)
	}
	dp.mach.StoreElements(in.Vd, 0, golden[:k])
	return k
}

// broadcast refills the .vx data_in rows with the scalar x.
func (dp *Datapath) broadcast(x uint32) *circuits.Env {
	uprog.FillBroadcastRows(dp.mach.Layout, dp.bcast.ExtRows, x)
	return &dp.bcast
}

// signFill returns the data_in row an SRA by a multiple of n plus r needs.
func (dp *Datapath) signFill(r int) *circuits.Env {
	if dp.topBits[r] == nil {
		dp.topBits[r] = &circuits.Env{ExtRows: []bitmat.Row{uprog.TopBitsRow(dp.mach.Layout, dp.cols, r)}}
	}
	return dp.topBits[r]
}

// plan maps an instruction to its micro-program sequence, mirroring the
// timing model's op→program mapping (internal/eve.measureOp) so
// execution and cycle accounting stay in lockstep. ok is false for port-
// only operations, which install instead.
func (dp *Datapath) plan(in *isa.Instr) ([]progRun, bool) {
	l := dp.mach.Layout
	bc := l.ScratchID(uprog.BroadcastScratch)
	vx := in.Kind == isa.KindVX
	d, a, b := in.Vd, in.Vs1, in.Vs2
	if vx {
		b = bc
	}
	m := in.Masked
	key := progKey{op: in.Op, vx: vx, masked: m, d: d, a: a, b: b}

	// The .vx prologue: stage the scalar into the broadcast scratch
	// register through data_in, unmasked, exactly as broadcastCost models.
	bcast := func() progRun {
		p := dp.cached(progKey{bcast: true}, func() *uop.Program {
			return uprog.WriteExt(l, bc, false)
		})
		return progRun{p, dp.broadcast(in.Scalar)}
	}
	// one: a single program run.
	one := func(r progRun) ([]progRun, bool) {
		dp.runs[0] = r
		return dp.runs[:1], true
	}
	// with: the main program, prefixed by the broadcast prologue for .vx.
	with := func(gen func() *uop.Program, env *circuits.Env) ([]progRun, bool) {
		main := progRun{dp.cached(key, gen), env}
		if vx {
			dp.runs = [2]progRun{bcast(), main}
			return dp.runs[:], true
		}
		return one(main)
	}

	switch in.Op {
	case isa.OpAdd:
		return with(func() *uop.Program { return uprog.Add(l, d, a, b, m) }, nil)
	case isa.OpSub:
		return with(func() *uop.Program { return uprog.Sub(l, d, a, b, m) }, nil)
	case isa.OpRSub:
		return with(func() *uop.Program { return uprog.RSub(l, d, a, b, m) }, nil)
	case isa.OpAnd:
		return with(func() *uop.Program { return uprog.Logic(l, uop.SrcAnd, d, a, b, m) }, nil)
	case isa.OpOr:
		return with(func() *uop.Program { return uprog.Logic(l, uop.SrcOr, d, a, b, m) }, nil)
	case isa.OpXor:
		return with(func() *uop.Program { return uprog.Logic(l, uop.SrcXor, d, a, b, m) }, nil)
	case isa.OpSAdd:
		return with(func() *uop.Program { return uprog.SatAdd(l, d, a, b, m) },
			&dp.sat)
	case isa.OpSAddU:
		return with(func() *uop.Program { return uprog.SatAddU(l, d, a, b, m) }, nil)
	case isa.OpSSub:
		return with(func() *uop.Program { return uprog.SatSub(l, d, a, b, m) },
			&dp.sat)
	case isa.OpSSubU:
		return with(func() *uop.Program { return uprog.SatSubU(l, d, a, b, m) }, nil)
	case isa.OpMin:
		return with(func() *uop.Program { return uprog.MinMax(l, false, true, d, a, b, m) }, nil)
	case isa.OpMax:
		return with(func() *uop.Program { return uprog.MinMax(l, true, true, d, a, b, m) }, nil)
	case isa.OpMinU:
		return with(func() *uop.Program { return uprog.MinMax(l, false, false, d, a, b, m) }, nil)
	case isa.OpMaxU:
		return with(func() *uop.Program { return uprog.MinMax(l, true, false, d, a, b, m) }, nil)
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		kind := uprog.ShSLL
		switch in.Op {
		case isa.OpSrl:
			kind = uprog.ShSRL
		case isa.OpSra:
			kind = uprog.ShSRA
		}
		if vx {
			// The VSU resolves the scalar amount at decode: no broadcast.
			k := int(in.Scalar & 31)
			key.imm = uint32(k)
			p := dp.cached(key, func() *uop.Program { return uprog.ShiftImm(l, kind, d, a, k, m) })
			var env *circuits.Env
			if kind == uprog.ShSRA && k%l.N != 0 {
				env = dp.signFill(k % l.N)
			}
			return one(progRun{p, env})
		}
		return one(progRun{dp.cached(key, func() *uop.Program { return uprog.ShiftVV(l, kind, d, a, b, m) }), nil})
	case isa.OpMerge:
		// Merge reads v0 itself; the Masked bit on the instruction is not a
		// tail predicate.
		return one(progRun{dp.cached(key, func() *uop.Program { return uprog.Merge(l, d, a, b) }), nil})
	case isa.OpMv:
		if vx {
			// vmv.v.x writes the broadcast directly to the destination.
			p := dp.cached(key, func() *uop.Program { return uprog.WriteExt(l, d, m) })
			return one(progRun{p, dp.broadcast(in.Scalar)})
		}
		return one(progRun{dp.cached(key, func() *uop.Program { return uprog.Copy(l, d, a, m) }), nil})
	case isa.OpMul:
		return with(func() *uop.Program { return uprog.Mul(l, d, a, b, m, false) }, nil)
	case isa.OpMacc:
		return with(func() *uop.Program { return uprog.Mul(l, d, a, b, m, true) }, nil)
	case isa.OpMulH:
		return with(func() *uop.Program { return uprog.MulH(l, d, a, b, m) }, nil)
	case isa.OpDiv:
		return with(func() *uop.Program { return uprog.DivRem(l, uprog.DivS, d, a, b, m) },
			&dp.div)
	case isa.OpDivU:
		return with(func() *uop.Program { return uprog.DivRem(l, uprog.DivU, d, a, b, m) },
			&dp.div)
	case isa.OpRem:
		return with(func() *uop.Program { return uprog.DivRem(l, uprog.RemS, d, a, b, m) },
			&dp.div)
	case isa.OpRemU:
		return with(func() *uop.Program { return uprog.DivRem(l, uprog.RemU, d, a, b, m) },
			&dp.div)
	case isa.OpMSeq:
		return with(func() *uop.Program { return uprog.Compare(l, uprog.CmpEq, d, a, b, m) }, nil)
	case isa.OpMSne:
		return with(func() *uop.Program { return uprog.Compare(l, uprog.CmpNe, d, a, b, m) }, nil)
	case isa.OpMSlt:
		return with(func() *uop.Program { return uprog.Compare(l, uprog.CmpLt, d, a, b, m) }, nil)
	case isa.OpMSltU:
		return with(func() *uop.Program { return uprog.Compare(l, uprog.CmpLtu, d, a, b, m) }, nil)
	case isa.OpMSle:
		return with(func() *uop.Program { return uprog.Compare(l, uprog.CmpLe, d, a, b, m) }, nil)
	case isa.OpMSleU:
		return with(func() *uop.Program { return uprog.Compare(l, uprog.CmpLeu, d, a, b, m) }, nil)
	case isa.OpMSgt:
		return with(func() *uop.Program { return uprog.Compare(l, uprog.CmpGt, d, a, b, m) }, nil)
	case isa.OpMSgtU:
		return with(func() *uop.Program { return uprog.Compare(l, uprog.CmpGtu, d, a, b, m) }, nil)
	}
	return nil, false
}

// cached memoizes built micro-programs per (op, form, operands) key.
func (dp *Datapath) cached(key progKey, gen func() *uop.Program) *uop.Program {
	if p, ok := dp.progs[key]; ok {
		return p
	}
	p := gen()
	dp.progs[key] = p
	return p
}
