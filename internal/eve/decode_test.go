package eve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/isa"
	"repro/internal/uop"
	"repro/internal/uprog"
	"repro/internal/uprog/check"
)

// TestDecodeLockstep holds the fault datapath's execution and the timing
// model's accounting together: at every n and for every cost class the
// datapath runs as micro-programs, the programs the decode returns for
// registers other than the cost table's fixed slots cost, on a fresh
// counting machine, exactly the cycles and energy the table charges.
func TestDecodeLockstep(t *testing.T) {
	const d, a, b = 5, 6, 7
	for _, n := range check.Factors {
		dc := NewDecoder(uprog.NewLayout(n))
		tbl := tableFor(n)
		for _, in := range costClasses() {
			v := dc.Decode(&in, d, a, b)
			if v.Body == nil {
				continue // port-only: the datapath installs, the table charges a port cost
			}
			name := fmt.Sprintf("EVE-%d %s kind=%d masked=%v scalar=%d", n, isa.Disassemble(&in), in.Kind, in.Masked, in.Scalar)
			var progs []*uop.Program // in execution order
			if v.Prologue != nil {
				progs = append(progs, v.Prologue)
			}
			progs = append(progs, v.Body)
			m := uprog.NewMachine(n, 2)
			var cycles int
			var energy float64
			for _, p := range progs {
				before := m.EnergyCounts()
				cycles += m.CountCycles(p)
				after := m.EnergyCounts()
				for i := range after {
					after[i] -= before[i]
				}
				energy += analytic.EnergyReadEq(after)
			}
			got := tbl.lookup(&in, uprog.DefaultMaxCycles)
			if got.cycles != cycles || got.energy != energy {
				t.Errorf("%s: decoded programs cost (%d cycles, %v energy), the table charges (%d, %v)",
					name, cycles, energy, got.cycles, got.energy)
			}
			if in.Kind == isa.KindVX && v.B != uprog.NewLayout(n).ScratchID(uprog.BroadcastScratch) {
				t.Errorf("%s: a .vx body reads vs2 = %d, want the broadcast scratch", name, v.B)
			}
		}
	}
}

// family names a verified program shape: a program name without its
// immediate (a shift amount), whether it is the masked variant, and how
// many data_in rows it reads.
type family struct {
	name    string
	masked  bool
	extRows int
}

func familyName(p *uop.Program) string {
	name, _, _ := strings.Cut(p.Name, "(")
	return name
}

// TestDecodeROMCoverage: every program the decode can return, at every n,
// belongs to a family uprog/check.Cases verifies — same program name, same
// masking, and the data_in row count its Spec was checked with matches the
// rows the decode says the program reads. So a decode entry cannot name a
// program uprogcheck never verified, or feed it rows it was not checked
// against.
func TestDecodeROMCoverage(t *testing.T) {
	const d, a, b = 3, 1, 2 // check.Cases' register convention
	for _, n := range check.Factors {
		l := uprog.NewLayout(n)
		rom := make(map[family]bool)
		for _, c := range check.Cases(l) {
			rom[family{familyName(c.Prog), strings.HasSuffix(c.Name, "/m"), c.Spec.ExtRows}] = true
		}
		extRows := map[DataIn]int{
			NoDataIn:  0,
			SatConsts: 2 * l.Segs,
			DivConsts: uprog.BitConstRowCount(l),
			SignFill:  1,
			Broadcast: l.Segs,
		}
		dc := NewDecoder(l)
		covered := 0
		for _, in := range costClasses() {
			v := dc.Decode(&in, d, a, b)
			plain := in
			plain.Masked = false
			u := dc.Decode(&plain, d, a, b)
			verify := func(role string, p, unmasked *uop.Program, rows int) {
				if p == nil {
					return
				}
				// A masked instruction's program is the masked variant
				// unless the generator ignores the mask bit (vmerge).
				masked := in.Masked && !reflect.DeepEqual(p, unmasked)
				f := family{familyName(p), masked, rows}
				if !rom[f] {
					t.Errorf("EVE-%d %s (masked=%v scalar=%d): %s %q is family %+v, which check.Cases does not verify",
						n, isa.Disassemble(&in), in.Masked, in.Scalar, role, p.Name, f)
				}
				covered++
			}
			verify("prologue", v.Prologue, u.Prologue, extRows[Broadcast])
			verify("body", v.Body, u.Body, extRows[v.DataIn])
		}
		if covered == 0 {
			t.Fatalf("EVE-%d: the decode returned no programs", n)
		}
	}
}
