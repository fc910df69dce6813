package isa

import (
	"strings"
	"testing"
)

func TestDisassemble(t *testing.T) {
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: OpAdd, Kind: KindVV, Vd: 3, Vs1: 1, Vs2: 2}, "vadd.vv v3, v1, v2"},
		{&Instr{Op: OpMul, Kind: KindVX, Vd: 4, Vs1: 5}, "vmul.vx v4, v5, x_"},
		{&Instr{Op: OpAdd, Kind: KindVV, Vd: 3, Vs1: 1, Vs2: 2, Masked: true}, "vadd.vv v3, v1, v2, v0.t"},
		{&Instr{Op: OpLoad, Vd: 7}, "vle32.v v7, (x_)"},
		{&Instr{Op: OpStore, Vs1: 9}, "vse32.v v9, (x_)"},
		{&Instr{Op: OpFence}, "vmfence"},
		{&Instr{Op: OpMvXS, Vs1: 6}, "vmv.x.s x_, v6"},
	}
	for _, c := range cases {
		if got := Disassemble(c.in); got != c.want {
			t.Errorf("Disassemble = %q, want %q", got, c.want)
		}
	}
}

// TestDisassembleCoversAllOps renders every operation after OpNop in its
// vv, vx and masked forms: none may fall back to the "op(N)" name, and
// each form shows its operand-kind suffix or mask operand where the
// operation has one.
func TestDisassembleCoversAllOps(t *testing.T) {
	if s := (OpFence + 1).String(); !strings.HasPrefix(s, "op(") {
		t.Fatalf("OpFence is no longer the last op (next is %q); extend this test's range", s)
	}
	for op := OpNop + 1; op <= OpFence; op++ {
		fixed := op == OpSetVL || op == OpFence || op == OpMvXS || op == OpMvSX
		for _, form := range []struct {
			kind   OperandKind
			masked bool
			want   string
		}{
			{KindVV, false, ".vv "},
			{KindVX, false, ".vx "},
			{KindVV, true, ", v0.t"},
		} {
			in := &Instr{Op: op, Kind: form.kind, Masked: form.masked, Vd: 1, Vs1: 2, Vs2: 3}
			s := Disassemble(in)
			if s == "" || strings.Contains(s, "op(") {
				t.Errorf("Disassemble(%+v) = %q", *in, s)
				continue
			}
			switch {
			case fixed:
			case IsMemory(op):
				if form.masked != strings.HasSuffix(s, ", v0.t") || !strings.Contains(s, ".v ") {
					t.Errorf("Disassemble(%+v) = %q", *in, s)
				}
			case !strings.Contains(s, form.want):
				t.Errorf("Disassemble(%+v) = %q, want it to contain %q", *in, s, form.want)
			}
		}
	}
}
