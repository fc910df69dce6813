package report

import (
	"fmt"
	"strings"
)

// Fig3 renders the EVE general overview (Fig 3): the circuit stack
// composition per design and the unit structure of the micro-architecture.
func Fig3() string {
	var b strings.Builder
	b.WriteString("FIGURE 3. EVE general overview\n\n")
	b.WriteString("(a) Micro-architecture: core commit -> VCU queue -> {VSU -> EVE SRAMs, VMU -> LLC, VRU}\n")
	b.WriteString("    8 DTUs transpose between cachelines and the segment layout; 1 exec pipe; in-order issue\n\n")
	b.WriteString("(b) VMU: macro-op -> cacheline-aligned request generation (1/cycle, TLB port) -> LLC\n")
	b.WriteString("    gathers generate one request per element\n\n")

	stacks := []struct {
		name   string
		layers []string
	}{
		{"(c) EVE-1 bit-serial", []string{"bus logic", "XOR/XNOR logic", "add logic (1-bit Manchester block)", "XRegister (carry latch)", "mask logic"}},
		{"(d) EVE-32 bit-parallel", []string{"bus logic", "XOR/XNOR logic", "add logic (32-bit Manchester chain)", "XRegister (shift-right)", "constant shifter", "mask logic"}},
		{"(e) EVE-n bit-hybrid", []string{"bus logic", "XOR/XNOR logic", "add logic (n-bit Manchester chain)", "XRegister (shift-right)", "constant shifter", "spare shifter (inter-segment bits + carry)", "mask logic"}},
	}
	for _, s := range stacks {
		fmt.Fprintf(&b, "%s (%d layers):\n", s.name, len(s.layers))
		for i, l := range s.layers {
			fmt.Fprintf(&b, "   %d. %s\n", i+1, l)
		}
		b.WriteByte('\n')
	}
	b.WriteString("Every n columns form a segment group; elements are 32/n segments processed serially.\n")
	return b.String()
}

// Fig5 renders the decoupled vector engine overview (Fig 5).
func Fig5() string {
	var b strings.Builder
	b.WriteString("FIGURE 5. Decoupled vector engine (O3+DV)\n\n")
	rows := [][]string{
		{"unit", "role"},
		{"issue", "in-order, 1 instruction/cycle, register scoreboard"},
		{"pipe 0", "simple integer (add/logic/compare/min/max), 16 lanes"},
		{"pipe 1", "pipelined complex integer (multiply, shifts), 16 lanes"},
		{"pipe 2", "iterative complex integer + cross-element (divide, reductions, permutes)"},
		{"pipe 3", "memory: VMU generating cacheline-aligned requests into the L2 (1/cycle, TLB hit assumed)"},
		{"VRF", "64-element vector registers"},
		{"store path", "store buffer drains data-ready stores without blocking later loads"},
	}
	b.WriteString(table(rows))
	return b.String()
}
