package isa

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// staticEq compares the static part of two instructions: the opcode,
// operand kind, registers and mask bit. Runtime payload (scalar values,
// addresses, VL) never appears in a disassembly.
func staticEq(a, b *Instr) bool {
	return a.Op == b.Op && a.Kind == b.Kind &&
		a.Vd == b.Vd && a.Vs1 == b.Vs1 && a.Vs2 == b.Vs2 &&
		a.Masked == b.Masked
}

// mnemonicOps inverts opNames for readDisasm's base-mnemonic lookup. It
// panics on a duplicate mnemonic: two ops sharing a name would make trace
// events that Disassemble names ambiguous.
var mnemonicOps = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		if prev, dup := m[name]; dup {
			panic(fmt.Sprintf("isa: mnemonic %q maps to both %d and %d", name, prev, op))
		}
		m[name] = op
	}
	return m
}()

// readDisasm parses one line in the syntax Disassemble emits back into its
// static form. It is the fuzz targets' oracle that Disassemble is
// unambiguous: a line must name exactly one static instruction.
func readDisasm(s string) (*Instr, error) {
	fields := strings.Fields(strings.ReplaceAll(s, ",", " "))
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty line")
	}
	mnemonic := fields[0]
	operands := fields[1:]

	masked := false
	if n := len(operands); n > 0 && operands[n-1] == "v0.t" {
		masked = true
		operands = operands[:n-1]
	}

	vreg := func(tok string) (int, error) {
		if !strings.HasPrefix(tok, "v") {
			return 0, fmt.Errorf("%q is not a vector register", tok)
		}
		r, err := strconv.Atoi(tok[1:])
		if err != nil || r < 0 || r > 31 {
			return 0, fmt.Errorf("bad vector register %q", tok)
		}
		return r, nil
	}
	regs := func(dst ...*int) error {
		if len(operands) < len(dst) {
			return fmt.Errorf("%q needs %d register operands", mnemonic, len(dst))
		}
		for i, d := range dst {
			r, err := vreg(operands[i])
			if err != nil {
				return err
			}
			*d = r
		}
		return nil
	}

	switch mnemonic {
	case "vmfence":
		return &Instr{Op: OpFence}, nil
	case "vsetvli":
		return &Instr{Op: OpSetVL}, nil
	case "vmv.x.s":
		in := &Instr{Op: OpMvXS}
		if len(operands) != 2 {
			return nil, fmt.Errorf("vmv.x.s needs 2 operands")
		}
		operands = operands[1:]
		return in, regs(&in.Vs1)
	case "vmv.s.x":
		in := &Instr{Op: OpMvSX, Kind: KindVX}
		if len(operands) != 2 {
			return nil, fmt.Errorf("vmv.s.x needs 2 operands")
		}
		return in, regs(&in.Vd)
	}

	dot := strings.LastIndex(mnemonic, ".")
	if dot < 0 {
		return nil, fmt.Errorf("mnemonic %q has no operand-kind suffix", mnemonic)
	}
	base, suffix := mnemonic[:dot], mnemonic[dot+1:]
	op, ok := mnemonicOps[base]
	if !ok || op == OpNop {
		return nil, fmt.Errorf("unknown mnemonic %q", base)
	}

	in := &Instr{Op: op, Masked: masked}
	switch {
	case IsMemory(op):
		if suffix != "v" || len(operands) != 2 {
			return nil, fmt.Errorf("malformed memory instruction %q", s)
		}
		if IsStore(op) {
			return in, regs(&in.Vs1)
		}
		return in, regs(&in.Vd)
	case suffix == "vv" && len(operands) == 3:
		return in, regs(&in.Vd, &in.Vs1, &in.Vs2)
	case suffix == "vx" && len(operands) == 3:
		in.Kind = KindVX
		return in, regs(&in.Vd, &in.Vs1)
	}
	return nil, fmt.Errorf("malformed instruction %q", s)
}

// decodeFields unpacks a 32-bit word into an instruction's static fields:
// op in bits 0–5, operand kind in bit 6, mask in bit 7, and vd, vs1, vs2
// in the 5-bit fields from bit 8. The layout is this test's own, not an
// RVV encoding; it lets the fuzzer reach every field combination.
func decodeFields(word uint32) *Instr {
	return &Instr{
		Op:     Op(word & 0x3f),
		Kind:   OperandKind(word >> 6 & 1),
		Masked: word>>7&1 == 1,
		Vd:     int(word >> 8 & 31),
		Vs1:    int(word >> 13 & 31),
		Vs2:    int(word >> 18 & 31),
	}
}

// shownFields keeps the static fields of in that its disassembly shows for
// its op — the rest are unused by the op — so an instruction and its
// read-back compare equal exactly when Disassemble lost nothing.
func shownFields(in *Instr) *Instr {
	switch {
	case in.Op == OpSetVL || in.Op == OpFence:
		return &Instr{Op: in.Op}
	case in.Op == OpMvXS:
		return &Instr{Op: in.Op, Vs1: in.Vs1}
	case in.Op == OpMvSX:
		return &Instr{Op: in.Op, Kind: KindVX, Vd: in.Vd}
	case IsStore(in.Op):
		return &Instr{Op: in.Op, Vs1: in.Vs1, Masked: in.Masked}
	case IsMemory(in.Op):
		return &Instr{Op: in.Op, Vd: in.Vd, Masked: in.Masked}
	case in.Kind == KindVX:
		return &Instr{Op: in.Op, Kind: KindVX, Vd: in.Vd, Vs1: in.Vs1, Masked: in.Masked}
	}
	return &Instr{Op: in.Op, Vd: in.Vd, Vs1: in.Vs1, Vs2: in.Vs2, Masked: in.Masked}
}

// encodeFields is decodeFields' inverse, for seeding.
func encodeFields(in *Instr) uint32 {
	w := uint32(in.Op) | uint32(in.Kind)<<6 |
		uint32(in.Vd)<<8 | uint32(in.Vs1)<<13 | uint32(in.Vs2)<<18
	if in.Masked {
		w |= 1 << 7
	}
	return w
}

// FuzzDecode throws arbitrary 32-bit words, decoded into static fields, at
// Disassemble. It must never panic, and for every real operation its text
// must not fall back to "op(N)" and must read back to the fields the op
// uses — so no two instructions a trace can carry share an event name.
func FuzzDecode(f *testing.F) {
	// Seed with every operation unmasked, masked, and masked with a scalar
	// operand, plus near-miss words (no op, out-of-range op, all ones).
	for op := OpNop + 1; op <= OpFence; op++ {
		in := &Instr{Op: op, Vd: 1, Vs1: 2, Vs2: 3}
		if op == OpVId {
			in.Vs1 = 0
		}
		if op == OpMvSX {
			in.Kind = KindVX
		}
		f.Add(encodeFields(in))
		in.Masked = true
		f.Add(encodeFields(in))
		in.Kind = KindVX
		f.Add(encodeFields(in))
	}
	f.Add(uint32(0))
	f.Add(uint32(0x57))
	f.Add(uint32(0xFFFFFFFF))
	f.Add(uint32(0x0B | 1<<12))
	f.Add(uint32(0x13))

	f.Fuzz(func(t *testing.T, word uint32) {
		in := decodeFields(word)
		text := Disassemble(in)
		if in.Op <= OpNop || in.Op > OpFence {
			return // no real operation: rendering without a panic is enough
		}
		if strings.Contains(text, "op(") {
			t.Fatalf("Disassemble(%+v) = %q falls back to the numeric name", *in, text)
		}
		got, err := readDisasm(text)
		if err != nil {
			t.Fatalf("Disassemble(%+v) = %q does not read back: %v", *in, text, err)
		}
		if want := shownFields(in); !staticEq(got, want) {
			t.Errorf("Disassemble(%+v) = %q reads back as %+v, want %+v", *in, text, *got, *want)
		}
	})
}

// FuzzAssemble throws arbitrary strings at the reader of Disassemble's
// syntax. Whatever line it accepts must disassemble to text that reads
// back to the same static instruction, and the reader must never panic on
// malformed input.
func FuzzAssemble(f *testing.F) {
	// Seed with the disassembly of every operation, masked and unmasked,
	// plus malformed near-misses.
	for op := OpNop + 1; op <= OpFence; op++ {
		in := &Instr{Op: op, Vd: 1, Vs1: 2, Vs2: 3}
		if op == OpVId {
			in.Vs1 = 0
		}
		if op == OpMvSX {
			in.Kind = KindVX
		}
		f.Add(Disassemble(in))
		in.Masked = true
		f.Add(Disassemble(in))
		in.Kind = KindVX
		f.Add(Disassemble(in))
	}
	f.Add("")
	f.Add("vadd.vv v1, v2")      // missing operand
	f.Add("vadd.vv v1, v2, v99") // bad register
	f.Add("vadd v1, v2, v3")     // no suffix
	f.Add("nonsense.vv v1, v2, v3")
	f.Add("vmv.x.s x_, v7")
	f.Add("vsetvli x0, x0, e32")
	f.Add("vmfence")

	f.Fuzz(func(t *testing.T, s string) {
		in, err := readDisasm(s)
		if err != nil {
			return // rejecting a line is fine; panicking is not
		}
		text := Disassemble(in)
		in2, err := readDisasm(text)
		if err != nil {
			t.Fatalf("%q read as %+v, but its disassembly %q does not read back: %v",
				s, *in, text, err)
		}
		if !staticEq(in, in2) {
			t.Errorf("read/disassemble round trip diverges for %q (via %q):\n first  %+v\n second %+v",
				s, text, *in, *in2)
		}
	})
}
