package faults

import (
	"repro/internal/bitmat"
	"repro/internal/circuits"
	"repro/internal/eve"
	"repro/internal/isa"
	"repro/internal/sram"
	"repro/internal/uop"
	"repro/internal/uprog"
)

// Datapath executes vector instructions on a real EVE circuit stack,
// implementing isa.Datapath. Every operation the VSU's decode
// (eve.Decoder.Decode) maps to micro-programs — the ones the timing model
// charges — runs those programs here, against a machine sized to hold the
// full hardware vector length; .vx forms stage their scalar through the
// reserved broadcast scratch register exactly as the VSU does. Operations
// that move data through the ports rather than the arrays — loads, slides,
// gathers, reductions, scalar moves — install the builder's golden result
// through the transposed data port instead (the port itself is not a
// modeled fault site).
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
// An armed datapath runs micro-programs only while its fault can act (see
// Exec); an unarmed one runs every instruction, and its Profile spans the
// fault-site space.
//
// A Datapath wraps single-threaded machine state and is not safe for
// concurrent use. A campaign runs one simulation at a time on each, and
// recycles it between simulations (reset).
type Datapath struct {
	mach     *uprog.Machine
	hwvl     int
	cols     int
	dec      eve.Decoder
	progs    map[progKey][]progRun
	prologue *program // the .vx broadcast, shared by every .vx plan

	// Owned buffers, so a steady-state instruction allocates nothing.
	out  []uint32     // Exec and Read results, valid until the next call
	tail []bitmat.Row // vd's rows, saved around a partial-VL run

	// data_in environments: the .vx broadcast rows (refilled in place per
	// run), the saturation and division constants, and the SRA sign-fill
	// row for each partial-segment width (built on first use).
	bcast, sat, div circuits.Env
	topBits         []*circuits.Env

	// seen[r] is register r's generation when the builder's mirror of r
	// last equalled the substrate. Both start at zero, as do a new
	// builder's registers and a reset substrate's cells.
	seen  [32]uint64
	reads int // Read's full data-port reads, for tests
	lives int // instructions run as micro-programs, for tests

	// Fault state: the armed faults, reduced to the geometry; whether Exec
	// has started; and whether the datapath has retired because no fault
	// can act again.
	faults           []Fault
	started, retired bool
}

// progKey identifies an instruction's cached micro-programs. Unlike the
// timing model's cost classes, it must include the concrete register
// operands: generated programs bake register row ids into their tuples, so
// a program built for one (d, a, b) triple cannot be reused for another.
type progKey struct {
	op      isa.Op
	vx      bool
	masked  bool
	imm     uint32 // eve.ShiftAmount
	d, a, b int
}

// program is a cached micro-program with the array accesses and bit-line
// computes one run of it makes. Micro-programs are data-independent and
// initialize their counters, so both are constants of the program.
type program struct {
	*uop.Program
	accesses, blcs uint64
}

// progRun is one micro-program plus the data_in environment it expects.
type progRun struct {
	p   *program
	env *circuits.Env
}

// NewDatapath builds a substrate for parallelization factor n holding hwvl
// elements, in the state reset restores. maxCycles is the per-micro-program
// watchdog budget (zero selects uprog.DefaultMaxCycles).
func NewDatapath(n, hwvl, maxCycles int) *Datapath {
	m := uprog.NewMachine(n, hwvl)
	m.MaxCycles = maxCycles
	l, cols := m.Layout, m.Stack.Array().Cols()
	dp := &Datapath{
		mach:    m,
		hwvl:    hwvl,
		cols:    cols,
		dec:     eve.NewDecoder(l),
		progs:   make(map[progKey][]progRun),
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
	dp.reset()
	return dp
}

// reset returns the datapath to the state NewDatapath leaves, keeping its
// storage and its decode cache: the machine reset (uprog.Machine.Reset), no
// fault armed, not started or retired, and every register's mirror current
// at generation zero. The rest of what a simulation touches needs no
// reset: plans depend only on the layout and their operands, the .vx
// broadcast rows are refilled before every run that reads them, and out
// and tail are written before they are read.
func (dp *Datapath) reset() {
	dp.mach.Reset()
	dp.mach.Generation(0) // generations count from here, with every register zero
	dp.seen = [32]uint64{}
	dp.reads, dp.lives = 0, 0
	dp.faults = dp.faults[:0]
	dp.started, dp.retired = false, false
}

// Array exposes the backing SRAM array for fault arming and inspection.
func (dp *Datapath) Array() *sram.Array { return dp.mach.Stack.Array() }

// Stack exposes the peripheral circuit stack for fault arming.
func (dp *Datapath) Stack() *circuits.Stack { return dp.mach.Stack }

// Arm arms one fault on the substrate. Sites are reduced modulo the
// machine's geometry so a profile sampled on an identically configured run
// always lands in range. Faults must be armed before the first instruction
// executes, and Arm panics after it: the active columns of every
// instruction up to a bit flip must cover the flip's element (window), and
// the instructions before a fault fires may have skipped the arrays (Exec).
func (dp *Datapath) Arm(f Fault) {
	if dp.started {
		panic("faults: Datapath.Arm after the first Exec")
	}
	arr := dp.mach.Stack.Array()
	f.Row, f.Col = f.Row%arr.Rows(), f.Col%arr.Cols()
	switch f.Kind {
	case KindBitFlip:
		arr.ArmBitFlip(f.Row, f.Col, f.Seq)
	case KindStuckSA:
		arr.SetColumnStuck(f.Col, f.Stuck)
	case KindWordlineDrop:
		dp.mach.Stack.ArmWordlineDrop(f.Seq)
	}
	dp.faults = append(dp.faults, f)
}

// Profile reports the substrate geometry and the access counts accumulated
// so far; measured on a fault-free run, it spans the sequence space Sites
// samples fault sites from. An armed datapath stops counting once it
// retires.
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
	if dp.retired {
		return nil
	}
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
//
// An armed datapath runs a micro-program only while a fault can act on
// it. An instruction is dormant when no armed fault can act on it — a flip
// or drop fires past its accesses or bit-line computes or has fired
// already, a stuck column lies in an element at or past its VL — and the
// registers it may read are current (asleep): golden goes in through the
// data port, as for a port-only op, and the access and blc sequences
// advance by the programs' counts. Registers whose mirror is current hold
// what the builder computed golden from, and every μop is group-local, so
// the cells match a live run's. Scratch rows and latches differ, but every
// program defines them before reading them, except the masked min/max
// merge into s5, which only a flip on a scratch row can expose (hence
// those stay live until they fire). Once no fault can act again — no stuck
// column, every flip and drop fired, none on a constant row, every mirror
// current — the datapath retires: Exec returns golden, Read returns nil,
// and the substrate is left alone.
func (dp *Datapath) Exec(in *isa.Instr, golden []uint32) []uint32 {
	dp.started = true
	armed := len(dp.faults) > 0
	if dp.retired || armed && dp.spent() {
		dp.retired = true
		return golden
	}
	runs := dp.plan(in)
	if armed {
		if acc, blcs := counts(runs); dp.asleep(in, acc, blcs) {
			dp.Array().Skip(acc)
			dp.Stack().SkipBLCs(blcs)
			runs = nil
		}
	}
	return dp.exec(in, golden, runs, dp.window(in))
}

// counts sums the array accesses and bit-line computes of runs.
func counts(runs []progRun) (accesses, blcs uint64) {
	for _, r := range runs {
		accesses += r.p.accesses
		blcs += r.p.blcs
	}
	return accesses, blcs
}

// asleep reports whether in, making the given accesses and bit-line
// computes, may skip the arrays. No armed fault may act on it: a flip or
// drop still to fire must fire past those accesses or computes, and a flip
// must not sit on a scratch row until it fires, or on a constant row once
// it has (nothing rewrites those); a stuck column must lie in an element
// at or past VL. And the registers it may read (vd, its sources and the
// mask v0) must be current, so that the arrays would compute golden.
func (dp *Datapath) asleep(in *isa.Instr, accesses, blcs uint64) bool {
	l := dp.mach.Layout
	seq, blcSeq := dp.Array().Accesses(), dp.Stack().BLCs()
	for _, f := range dp.faults {
		switch f.Kind {
		case KindBitFlip:
			pending := f.Seq >= seq
			scratch := f.Row >= l.Regs*l.Segs && f.Row < l.ZeroRow()
			if pending && (scratch || f.Seq < seq+accesses) || !pending && f.Row >= l.ZeroRow() {
				return false
			}
		case KindStuckSA:
			if f.Col/l.N < min(in.VL, dp.hwvl) {
				return false
			}
		case KindWordlineDrop:
			if f.Seq >= blcSeq && f.Seq < blcSeq+blcs {
				return false
			}
		}
	}
	for _, r := range [...]int{in.Vd, in.Vs1, in.Vs2, 0} {
		if dp.seen[r] != dp.mach.Generation(r) {
			return false
		}
	}
	return true
}

// spent reports whether no armed fault can act again: no stuck column is
// armed, every flip and drop has fired (or never will, armed for an index
// already passed), no such flip sits on a constant row (nothing rewrites
// those), and the builder's mirror of every register is current.
func (dp *Datapath) spent() bool {
	seq, blcSeq := dp.Array().Accesses(), dp.Stack().BLCs()
	for _, f := range dp.faults {
		switch f.Kind {
		case KindStuckSA:
			return false
		case KindBitFlip:
			if f.Seq >= seq || f.Row >= dp.mach.Layout.ZeroRow() {
				return false
			}
		case KindWordlineDrop:
			if f.Seq >= blcSeq {
				return false
			}
		}
	}
	for r, g := range dp.seen {
		if g != dp.mach.Generation(r) {
			return false
		}
	}
	return true
}

// exec runs runs over the first active elements, or installs golden when
// runs is empty, and keeps vd's mirror rule. The builder adopts the
// returned register, whose elements below VL are the substrate's and whose
// tail is the mirror's own; the substrate's tail is untouched or restored
// from before the run. So the mirror stays current if it was current
// before, and becomes current when every element was read back or
// installed. Only element 0 of a reduction or vmv.s.x is installed, at any
// VL, so those never make a stale mirror current. Any other register whose
// cells changed during the run — a fired bit flip — stays stale until its
// next Read.
func (dp *Datapath) exec(in *isa.Instr, golden []uint32, runs []progRun, active int) []uint32 {
	vd := in.Vd
	current := dp.seen[vd] == dp.mach.Generation(vd)
	out, full := golden, false
	if len(runs) > 0 {
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
	dp.lives++
	vd := in.Vd
	vl := min(in.VL, dp.hwvl)
	if vl < dp.hwvl {
		dp.mach.SaveRegister(vd, dp.tail)
	}
	dp.mach.SetActive(active)
	for _, r := range runs {
		if r.env == &dp.bcast {
			uprog.FillBroadcastRows(dp.mach.Layout, dp.bcast.ExtRows, in.Scalar)
		}
		dp.mach.Run(r.p.Program, r.env)
	}
	if vl < dp.hwvl {
		dp.mach.RestoreTail(vd, vl, dp.tail)
	}
	out := dp.out[:copy(dp.out, golden)]
	dp.mach.LoadElements(vd, 0, out[:min(vl, len(out))])
	return out
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
// writebacks, vid), and for dormant instructions — and reports how many
// elements, from element 0, it wrote.
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

// signFill returns the data_in row an SRA by a multiple of n plus r needs.
func (dp *Datapath) signFill(r int) *circuits.Env {
	if dp.topBits[r] == nil {
		//evelint:allow hotalloc -- built once per partial-segment width, then reused
		dp.topBits[r] = &circuits.Env{ExtRows: []bitmat.Row{uprog.TopBitsRow(dp.mach.Layout, dp.cols, r)}}
	}
	return dp.topBits[r]
}

// plan returns an instruction's micro-program sequence, the VSU's decode
// (eve.Decoder.Decode) cached per operands, or nil for a port-only
// operation, which installs instead.
func (dp *Datapath) plan(in *isa.Instr) []progRun {
	key := progKey{op: in.Op, vx: in.Kind == isa.KindVX, masked: in.Masked, imm: eve.ShiftAmount(in), d: in.Vd, a: in.Vs1, b: in.Vs2}
	if key.vx {
		key.b = 0 // a .vx body reads the broadcast scratch, not vs2
	}
	runs, ok := dp.progs[key]
	if !ok {
		runs = dp.decode(in, key)
		dp.progs[key] = runs
	}
	return runs
}

// decode builds in's micro-program sequence with the data_in environment
// each program expects; the .vx broadcast prologue is built once per
// datapath.
func (dp *Datapath) decode(in *isa.Instr, key progKey) []progRun {
	v := dp.dec.Decode(in, key.d, key.a, key.b)
	if v.Body == nil {
		return nil
	}
	var env *circuits.Env
	switch v.DataIn {
	case eve.SatConsts:
		env = &dp.sat
	case eve.DivConsts:
		env = &dp.div
	case eve.SignFill:
		env = dp.signFill(int(key.imm) % dp.mach.Layout.N)
	case eve.Broadcast:
		env = &dp.bcast
	}
	body := progRun{dp.count(v.Body), env}
	if v.Prologue == nil {
		//evelint:allow hotalloc -- built once per distinct program and operands, then reused
		return []progRun{body}
	}
	if dp.prologue == nil {
		dp.prologue = dp.count(v.Prologue)
	}
	//evelint:allow hotalloc -- built once per distinct program and operands, then reused
	return []progRun{{dp.prologue, &dp.bcast}, body}
}

// count pairs p with the array accesses and bit-line computes one run of it
// makes, from a counting walk (uprog's energy classes: every read, write
// and blc μop is one array access).
func (dp *Datapath) count(p *uop.Program) *program {
	_, c := dp.mach.Measure(p)
	//evelint:allow hotalloc -- built once per distinct program and operands, then reused
	return &program{p, c[uop.ECRead] + c[uop.ECWrite] + c[uop.ECBLC], c[uop.ECBLC]}
}
