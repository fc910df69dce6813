// Package check statically verifies micro-programs: it proves, without
// touching an SRAM array, that a uop.Program respects the layout's row
// discipline, defines every row and latch before reading it, predicates
// soundly, is structurally well formed, and terminates within a static cycle
// bound.
//
// The verifier runs two phases. A structural phase walks the tuples once:
// enum validity (via uop.EffectsOf, whose errors mirror the circuit stack's
// panics), branch targets, reachability, a reachable ret, fall-off-the-end
// paths, and proper nesting of backward-branch regions. If the structure is
// sound, an abstract interpretation then executes the counter and control
// μops exactly as uprog.Machine does — micro-programs are data-independent,
// so the counter/control state follows a single path — while tracking, per
// cycle, which scratch rows and circuit-stack latches hold defined values.
// That yields exact row addresses for every loop trip (row-bounds and
// operand-discipline checking), def-before-use liveness for scratch rows,
// the carry/mask/xreg/cshift/spare latches and the sense amplifiers,
// mask-load site tracking (a masked μop whose mask was loaded at different
// sites on different trips has been clobbered mid-loop), and the program's
// exact worst-case cycle count — which the interpretation itself bounds by
// Spec.MaxCycles, turning the runtime watchdog into a statically discharged
// obligation.
//
// The liveness model is deliberately conservative in two documented ways:
// native reads and writes invalidate the sense amplifiers (physically they
// drive the bit lines; the ROM never interleaves them inside a
// blc→writeback window), and a masked row write counts as defining the row
// (the ROM's two-phase merge idioms cover every column across complementary
// masks, which a per-column model would need value tracking to see). Rows
// and latches first defined that way are recorded in the Report as data.
package check

import (
	"fmt"
	"sort"

	"repro/internal/uop"
	"repro/internal/uprog"
)

// Pass names, one per verification family; Violation.Pass carries them.
const (
	PassStruct = "struct" // structural well-formedness
	PassBounds = "bounds" // row bounds and operand discipline
	PassLive   = "live"   // def-before-use over rows and latches
	PassMask   = "mask"   // predication soundness
	PassCycles = "cycles" // static cycle bound
)

// Spec declares what a micro-program is entitled to touch: the layout it was
// generated for, the architectural operands the macro-operation reads and
// writes, the data_in rows the VSU drives, and the cycle budget.
type Spec struct {
	// Layout is the register-file geometry the program addresses.
	Layout uprog.Layout
	// Reads and Writes list the declared register operands by id:
	// architectural registers 0..Regs-1, or ScratchID(BroadcastScratch) when
	// a .vx prologue staged a scalar. Scratch 0..5 are the generators'
	// working set and need no declaration; the reserved broadcast register
	// does. Declared Reads are treated as defined on entry.
	Reads, Writes []int
	// ExtRows is the number of data_in rows the VSU drives (0 when the
	// program never reads the port).
	ExtRows int
	// MaxCycles is the cycle budget; zero selects uprog.DefaultMaxCycles.
	MaxCycles int
}

// Violation is one diagnostic: which pass, at which tuple (PC < 0 for
// whole-program findings), and the message.
type Violation struct {
	Pass string
	PC   int
	Msg  string
}

func (v Violation) String() string {
	if v.PC < 0 {
		return fmt.Sprintf("%s: %s", v.Pass, v.Msg)
	}
	return fmt.Sprintf("%s@%d: %s", v.Pass, v.PC, v.Msg)
}

// Report is the verdict on one program.
type Report struct {
	// Program is the micro-program's name.
	Program string
	// Cycles is the exact cycle count of the abstract run — equal to
	// Machine.CountCycles, since micro-programs are data-independent — or -1
	// when a fatal structural finding or the cycle budget stopped the run.
	Cycles int
	// Violations lists the findings in discovery order (structural phase
	// first, then abstract-run order), deduplicated across loop trips.
	Violations []Violation
	// MaskedRowDefs lists, in abstract-run order, the scratch rows whose
	// first definition in the program is a masked write, and
	// MaskedLatchDefs the latches first written by a masked μop. They are
	// data, not violations: such a definition covers every column only
	// across complementary masks, which is what keeps a column outside an
	// instruction's active columns from ever being read
	// (faults.Datapath.window; DESIGN.md, modeling decision 10).
	MaskedRowDefs   []int
	MaskedLatchDefs uop.LatchSet
}

// OK reports whether the program verified cleanly.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Program verifies one micro-program against its spec.
func Program(p *uop.Program, spec Spec) *Report {
	c := &checker{p: p, spec: spec, l: spec.Layout, seen: map[Violation]bool{}}
	c.structural()
	cycles := -1
	if !c.fatal {
		cycles = c.interpret()
	}
	return &Report{Program: p.Name, Cycles: cycles, Violations: c.out,
		MaskedRowDefs: c.maskedRows, MaskedLatchDefs: c.maskedLatches}
}

type checker struct {
	p    *uop.Program
	spec Spec
	l    uprog.Layout

	// Per-tuple effect summaries from the structural phase; effOK[pc] is
	// false when EffectsOf rejected the μop.
	effects []uop.Effects
	effOK   []bool

	seen  map[Violation]bool
	out   []Violation
	fatal bool

	// Masked first definitions (Report.MaskedRowDefs, MaskedLatchDefs).
	maskedRows    []int
	maskedLatches uop.LatchSet
}

// reportf records a deduplicated violation (loops revisit tuples; each
// distinct finding is reported once).
func (c *checker) reportf(pass string, pc int, format string, args ...interface{}) {
	v := Violation{Pass: pass, PC: pc, Msg: fmt.Sprintf(format, args...)}
	if c.seen[v] {
		return
	}
	c.seen[v] = true
	c.out = append(c.out, v)
}

// fatalf records a structural violation that makes the abstract run
// meaningless (invalid enums, wild branch targets).
func (c *checker) fatalf(pc int, format string, args ...interface{}) {
	c.reportf(PassStruct, pc, format, args...)
	c.fatal = true
}

// structural runs the single static walk over the tuples.
func (c *checker) structural() {
	n := c.p.Len()
	if n == 0 {
		c.fatalf(-1, "empty program: no tuples, no ret")
		return
	}
	c.effects = make([]uop.Effects, n)
	c.effOK = make([]bool, n)
	for pc := range c.p.Tuples {
		t := &c.p.Tuples[pc]

		switch t.Ctr.Kind {
		case uop.CNone:
		case uop.CInit:
			if !t.Ctr.Cnt.Valid() {
				c.fatalf(pc, "init of invalid counter %v", t.Ctr.Cnt)
			} else if t.Ctr.Val < 1 {
				c.reportf(PassStruct, pc, "init %v with trip count %d; loops need a count >= 1",
					t.Ctr.Cnt, t.Ctr.Val)
			}
		case uop.CDecr, uop.CIncr:
			if !t.Ctr.Cnt.Valid() {
				c.fatalf(pc, "%v of invalid counter %v", t.Ctr.Kind, t.Ctr.Cnt)
			}
		default:
			c.fatalf(pc, "invalid counter μop kind %v", t.Ctr.Kind)
		}

		e, err := uop.EffectsOf(t.Arith)
		if err != nil {
			c.fatalf(pc, "invalid arithmetic μop: %v", err)
		} else {
			c.effects[pc], c.effOK[pc] = e, true
			for _, ref := range e.ReadRows {
				c.checkRefCounter(pc, ref)
			}
			if e.WritesRow {
				c.checkRefCounter(pc, e.WriteRow)
			}
			if e.ReadsExt && t.Arith.ExtR.HasCnt && !t.Arith.ExtR.Cnt.Valid() {
				c.fatalf(pc, "data_in ref indexed by invalid counter %v", t.Arith.ExtR.Cnt)
			}
		}

		switch t.Ctl.Kind {
		case uop.LNone, uop.LRet:
		case uop.LJmp:
			c.checkTarget(pc, t.Ctl.Target)
		case uop.LBnz, uop.LBnd:
			if !t.Ctl.Cnt.Valid() {
				c.fatalf(pc, "%v consults invalid counter %v", t.Ctl.Kind, t.Ctl.Cnt)
			}
			c.checkTarget(pc, t.Ctl.Target)
		default:
			c.fatalf(pc, "invalid control μop kind %v", t.Ctl.Kind)
		}
	}
	if c.fatal {
		return
	}
	reach := c.reachability()
	c.loopNesting(reach)
}

func (c *checker) checkRefCounter(pc int, ref uop.RowRef) {
	if ref.HasCnt && !ref.Cnt.Valid() {
		c.fatalf(pc, "row ref %v indexed by invalid counter", ref)
	}
}

func (c *checker) checkTarget(pc, target int) {
	if target < 0 || target >= c.p.Len() {
		c.fatalf(pc, "branch target %d outside the program [0,%d)", target, c.p.Len())
	}
}

// successors returns the static control-flow successors of pc; a successor
// equal to Len() means control falls off the end of the program.
func (c *checker) successors(pc int) []int {
	t := &c.p.Tuples[pc]
	switch t.Ctl.Kind {
	case uop.LNone:
		return []int{pc + 1}
	case uop.LJmp:
		return []int{t.Ctl.Target}
	case uop.LRet:
		return nil
	default: // LBnz, LBnd: taken and fall-through
		return []int{t.Ctl.Target, pc + 1}
	}
}

// reachability flags unreachable tuples, paths falling off the end, and the
// absence of a reachable ret; it returns the reachable set.
func (c *checker) reachability() []bool {
	n := c.p.Len()
	reach := make([]bool, n)
	work := []int{0}
	reach[0] = true
	haveRet := false
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if c.p.Tuples[pc].Ctl.Kind == uop.LRet {
			haveRet = true
		}
		for _, s := range c.successors(pc) {
			if s == n {
				c.reportf(PassStruct, pc, "control falls off the end of the program (missing ret)")
				continue
			}
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	if !haveRet {
		c.reportf(PassStruct, -1, "no reachable ret")
	}
	for pc := 0; pc < n; pc++ {
		if !reach[pc] {
			c.reportf(PassStruct, pc, "unreachable tuple")
		}
	}
	return reach
}

// loopNesting checks that backward-branch regions [target, pc] are properly
// nested: two loops may be disjoint or contained, never interleaved.
func (c *checker) loopNesting(reach []bool) {
	type region struct{ lo, hi int }
	var regions []region
	for pc := range c.p.Tuples {
		if !reach[pc] {
			continue
		}
		ctl := c.p.Tuples[pc].Ctl
		switch ctl.Kind {
		case uop.LBnz, uop.LBnd, uop.LJmp:
			if ctl.Target <= pc {
				regions = append(regions, region{ctl.Target, pc})
			}
		}
	}
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.lo > b.lo {
				a, b = b, a
			}
			if a.lo < b.lo && b.lo <= a.hi && a.hi < b.hi {
				c.reportf(PassStruct, b.hi, "loops [%d,%d] and [%d,%d] interleave without nesting",
					a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

// runState is the abstract machine state of the interpretation phase.
type runState struct {
	vals, inits, iters [uop.NumCounters]int
	zeroF, decF        [uop.NumCounters]bool
	inited             [uop.NumCounters]bool

	// def tracks scratch-row definedness (index: row - Regs*Segs).
	def []bool
	// latchDef tracks which latches hold a program-defined value.
	latchDef [uop.NumLatches]bool
	// senseValid: the sense amplifiers hold a live bit-line compute result.
	senseValid bool
	// addValid: the carry latch held a defined value when the live bit-line
	// compute ran (the adder captures carry-in at blc time).
	addValid bool
	// maskDefPC is the tuple that last loaded the mask latches (-1: power-up
	// state only).
	maskDefPC int
	// maskSites records, per masked-consumer pc, the set of mask-load sites
	// observed across trips; more than one means the mask is clobbered
	// mid-loop.
	maskSites map[int]map[int]bool
}

// interpret runs the counter/control μops exactly as uprog.Machine.exec does,
// checking the arithmetic μop of each cycle against the abstract state, and
// returns the exact cycle count (-1 if the budget was exhausted).
func (c *checker) interpret() int {
	n := c.p.Len()
	limit := c.spec.MaxCycles
	if limit <= 0 {
		limit = uprog.DefaultMaxCycles
	}
	l := c.l

	readable := make([]bool, l.Regs+l.Scratch)
	writable := make([]bool, l.Regs+l.Scratch)
	declare := func(ids []int, set []bool) {
		for _, r := range ids {
			if r < 0 || r >= len(set) {
				c.reportf(PassBounds, -1, "spec declares register id %d outside the file", r)
				continue
			}
			set[r] = true
		}
	}
	declare(c.spec.Reads, readable)
	declare(c.spec.Writes, writable)
	for i, w := range writable {
		if w {
			readable[i] = true // a destination may be re-read (vmacc)
		}
	}

	st := &runState{maskDefPC: -1, maskSites: map[int]map[int]bool{}}
	st.def = make([]bool, l.Scratch*l.Segs)
	for _, r := range c.spec.Reads {
		if r >= l.Regs && r < l.Regs+l.Scratch {
			for s := 0; s < l.Segs; s++ {
				st.def[(r-l.Regs)*l.Segs+s] = true
			}
		}
	}

	cycles := 0
	pc := 0
	for pc < n {
		if cycles >= limit {
			c.reportf(PassCycles, pc, "exceeds the %d-cycle watchdog budget without returning", limit)
			c.maskClobber(st)
			return -1
		}
		t := &c.p.Tuples[pc]
		cycles++

		if c.effOK[pc] && t.Arith.Kind != uop.ANone {
			c.step(pc, &t.Arith, &c.effects[pc], st, readable, writable)
		}

		switch t.Ctr.Kind {
		case uop.CNone:
		case uop.CInit:
			cnt := t.Ctr.Cnt
			st.vals[cnt], st.inits[cnt], st.iters[cnt] = t.Ctr.Val, t.Ctr.Val, 0
			st.zeroF[cnt], st.decF[cnt] = false, false
			st.inited[cnt] = true
		case uop.CDecr:
			cnt := t.Ctr.Cnt
			if !st.inited[cnt] {
				c.reportf(PassStruct, pc, "decr of %v before any init", cnt)
				st.inited[cnt] = true
			}
			st.vals[cnt]--
			st.iters[cnt]++
			if st.vals[cnt] <= 0 {
				st.zeroF[cnt] = true
				st.vals[cnt] = st.inits[cnt]
				st.iters[cnt] = 0
			}
			if v := st.vals[cnt]; v > 0 && v&(v-1) == 0 {
				st.decF[cnt] = true
			}
		case uop.CIncr:
			cnt := t.Ctr.Cnt
			if !st.inited[cnt] {
				c.reportf(PassStruct, pc, "incr of %v before any init", cnt)
				st.inited[cnt] = true
			}
			st.vals[cnt]++
			st.iters[cnt]--
		}

		next := pc + 1
		switch t.Ctl.Kind {
		case uop.LNone:
		case uop.LJmp:
			next = t.Ctl.Target
		case uop.LRet:
			c.maskClobber(st)
			return cycles
		case uop.LBnz:
			cnt := t.Ctl.Cnt
			if !st.inited[cnt] {
				c.reportf(PassStruct, pc, "bnz consults %v before any init", cnt)
				st.inited[cnt] = true
			}
			if !st.zeroF[cnt] {
				next = t.Ctl.Target
			} else {
				st.zeroF[cnt] = false
			}
		case uop.LBnd:
			cnt := t.Ctl.Cnt
			if !st.inited[cnt] {
				c.reportf(PassStruct, pc, "bnd consults %v before any init", cnt)
				st.inited[cnt] = true
			}
			if st.decF[cnt] {
				st.decF[cnt] = false
				next = t.Ctl.Target
			}
		}
		pc = next
	}
	// Fell off the end (already a structural violation): report the cycle
	// count of the path actually taken, like the machine would.
	c.maskClobber(st)
	return cycles
}

// step checks one arithmetic μop against the abstract state and applies its
// effects. Reads are checked against the pre-cycle state; invalidations and
// writes apply afterwards, mirroring the stack's within-cycle ordering.
func (c *checker) step(pc int, op *uop.Arith, e *uop.Effects, st *runState, readable, writable []bool) {
	for i := range e.ReadRows {
		row := c.resolveRow(pc, e.ReadRows[i], st)
		c.checkRowRead(pc, e.ReadRows[i], row, st, readable)
	}
	if e.ReadsExt {
		if op.ExtR.HasCnt && !st.inited[op.ExtR.Cnt] {
			c.reportf(PassStruct, pc, "data_in ref indexed by %v before the counter is initialized", op.ExtR.Cnt)
		}
		idx := op.ExtR.Resolve(&st.iters)
		if idx < 0 || idx >= c.spec.ExtRows {
			c.reportf(PassBounds, pc, "data_in row %d out of range: the VSU drives %d rows", idx, c.spec.ExtRows)
		}
	}

	if e.Reads.Has(uop.LatchSense) && !st.senseValid {
		c.reportf(PassLive, pc, "writeback source %v has no live bit-line compute result", op.Src)
	}
	if e.Reads.Has(uop.LatchCarry) && st.senseValid && !st.addValid {
		c.reportf(PassLive, pc, "add writeback: the carry latch was undefined at the bit-line compute")
	}
	if e.Reads.Has(uop.LatchMask) {
		if st.maskDefPC < 0 {
			c.reportf(PassMask, pc, "masked %v before any mask load (power-up mask state)", op.Kind)
		} else {
			sites := st.maskSites[pc]
			if sites == nil {
				sites = map[int]bool{}
				st.maskSites[pc] = sites
			}
			sites[st.maskDefPC] = true
		}
	}
	for _, lr := range []struct {
		latch uop.Latch
		name  string
	}{
		{uop.LatchXReg, "xreg"},
		{uop.LatchCShift, "cshift"},
		{uop.LatchSpare, "spare"},
	} {
		if e.Reads.Has(lr.latch) && !st.latchDef[lr.latch] {
			c.reportf(PassLive, pc, "reads the %s latch before it is loaded", lr.name)
		}
	}

	if e.WritesRow {
		row := c.resolveRow(pc, e.WriteRow, st)
		c.checkRowWrite(pc, e.WriteRow, row, st, writable, op.Masked)
	}
	if e.InvalidatesSense {
		st.senseValid = false
	}
	if e.Writes.Has(uop.LatchSense) {
		st.senseValid = true
		st.addValid = st.latchDef[uop.LatchCarry]
	}
	masked := maskedLatches(op, e)
	for latch := uop.LatchCarry; latch <= uop.LatchSpare; latch++ {
		if e.Writes.Has(latch) {
			if masked.Has(latch) && !st.latchDef[latch] {
				c.maskedLatches = c.maskedLatches.With(latch)
			}
			st.latchDef[latch] = true
			if latch == uop.LatchMask {
				st.maskDefPC = pc
			}
		}
	}
}

// maskedLatches is the set of latches op writes under the mask latches: a
// masked shift's or rotate's shifters and the carry a masked add writeback
// commits.
func maskedLatches(op *uop.Arith, e *uop.Effects) uop.LatchSet {
	if !op.Masked {
		return 0
	}
	switch op.Kind {
	case uop.ALShift, uop.ARShift, uop.ALRotate, uop.ARRotate:
		return e.Writes
	}
	if e.CommitsCarry {
		return uop.Latches(uop.LatchCarry)
	}
	return 0
}

func (c *checker) resolveRow(pc int, ref uop.RowRef, st *runState) int {
	if ref.HasCnt && !st.inited[ref.Cnt] {
		c.reportf(PassStruct, pc, "row ref %v used before %v is initialized", ref, ref.Cnt)
	}
	return ref.Resolve(&st.iters)
}

func (c *checker) checkRowRead(pc int, ref uop.RowRef, row int, st *runState, readable []bool) {
	l := c.l
	if row < 0 || row >= l.Rows() {
		c.reportf(PassBounds, pc, "row %d (ref %v) outside the layout's %d rows", row, ref, l.Rows())
		return
	}
	group := row / l.Segs
	switch {
	case group < l.Regs:
		if !readable[group] {
			c.reportf(PassBounds, pc, "reads register v%d, which is not a declared operand", group)
		}
	case group < l.Regs+l.Scratch:
		if group-l.Regs == uprog.BroadcastScratch && !readable[group] {
			c.reportf(PassBounds, pc, "reads the reserved broadcast scratch register without declaring it")
			return
		}
		if !st.def[row-l.Regs*l.Segs] {
			c.reportf(PassLive, pc, "reads scratch s%d segment %d before any write",
				group-l.Regs, row%l.Segs)
		}
	default:
		// Constant rows are always defined and readable.
	}
}

func (c *checker) checkRowWrite(pc int, ref uop.RowRef, row int, st *runState, writable []bool, masked bool) {
	l := c.l
	if row < 0 || row >= l.Rows() {
		c.reportf(PassBounds, pc, "row %d (ref %v) outside the layout's %d rows", row, ref, l.Rows())
		return
	}
	if row >= l.ZeroRow() {
		names := [...]string{"zero", "one", "sign"}
		c.reportf(PassBounds, pc, "writes constant row %d (the %s row)", row, names[row-l.ZeroRow()])
		return
	}
	group := row / l.Segs
	if group < l.Regs {
		if !writable[group] {
			c.reportf(PassBounds, pc, "writes register v%d, which is not a declared destination", group)
		}
		return
	}
	if group-l.Regs == uprog.BroadcastScratch && !writable[group] {
		c.reportf(PassBounds, pc, "writes the reserved broadcast scratch register")
		return
	}
	if i := row - l.Regs*l.Segs; !st.def[i] {
		st.def[i] = true
		if masked {
			c.maskedRows = append(c.maskedRows, row)
		}
	}
}

// maskClobber reports masked μops whose mask was loaded at more than one
// site across trips.
func (c *checker) maskClobber(st *runState) {
	pcs := make([]int, 0, len(st.maskSites))
	for pc := range st.maskSites {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		sites := st.maskSites[pc]
		if len(sites) < 2 {
			continue
		}
		list := make([]int, 0, len(sites))
		for s := range sites {
			list = append(list, s)
		}
		sort.Ints(list)
		c.reportf(PassMask, pc, "mask clobbered mid-loop: consumed here but loaded at %d different sites %v across trips",
			len(list), list)
	}
}
