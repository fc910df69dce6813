// Package faults runs deterministic fault-injection campaigns over the EVE
// SRAM compute substrate.
//
// The bit-level machine (internal/uprog on internal/circuits on
// internal/sram) normally serves only the timing model: internal/sim
// executes workloads in the ISA layer's golden Go registers and charges
// cycles from measured micro-program lengths. That split makes injected
// faults architecturally invisible — corrupting an SRAM cell would change
// nothing a workload checker can observe. This package closes the loop with
// Datapath, an isa.Datapath that re-executes every vector instruction's
// micro-program on a real circuit stack and hands the substrate's register
// contents back to the builder. A fault-free Datapath reproduces the golden
// run exactly (cycle counts, memory contents, checker verdicts); an armed
// fault propagates — or fails to — precisely as far as the modeled
// micro-architecture lets it.
//
// A campaign (Run) samples fault sites from a seeded generator, runs one
// simulation per (kernel, site) cell on the internal/sweep worker pool, and
// classifies each cell against a fault-free baseline: masked (checker and
// memory checksum agree with the baseline), detected (the workload checker
// rejects the output), silent data corruption (checker passes but the final
// memory image differs), or crash (the simulation aborted through a typed
// sim.SimError or a recovered panic). Same seed, same report — at any
// worker count.
package faults

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Kind enumerates the modeled fault classes.
type Kind int

const (
	// KindBitFlip is a transient single-event upset: one SRAM cell inverts
	// immediately before a chosen array access and stays inverted until the
	// row is rewritten (sram.Array.ArmBitFlip).
	KindBitFlip Kind = iota
	// KindStuckSA is a permanent stuck-at sense amplifier: one array column
	// reads a constant on every read and bit-line compute for the whole run
	// (sram.Array.SetColumnStuck). The transposed data port is unaffected.
	KindStuckSA
	// KindWordlineDrop is a dropped wordline activation: one bit-line
	// compute activates only its first wordline, so the sense amplifiers
	// see that row AND/OR itself (circuits.Stack.ArmWordlineDrop).
	KindWordlineDrop
)

var kindNames = map[Kind]string{
	KindBitFlip:      "bitflip",
	KindStuckSA:      "stuck-sa",
	KindWordlineDrop: "wordline-drop",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText renders the kind name, making Fault JSON self-describing.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name (the inverse of MarshalText).
func (k *Kind) UnmarshalText(b []byte) error {
	for _, kk := range []Kind{KindBitFlip, KindStuckSA, KindWordlineDrop} {
		if kindNames[kk] == string(b) {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("faults: unknown fault kind %q", b)
}

// ParseKinds parses a comma-separated kind list ("bitflip,stuck-sa"), with
// "all" selecting every modeled kind.
func ParseKinds(s string) ([]Kind, error) {
	if s == "" || s == "all" {
		return []Kind{KindBitFlip, KindStuckSA, KindWordlineDrop}, nil
	}
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		var k Kind
		if err := k.UnmarshalText([]byte(strings.TrimSpace(part))); err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Fault is one armed fault site. Which fields are meaningful depends on
// Kind: a bit flip names a cell (Row, Col) and an access index (Seq); a
// stuck sense amplifier names a column (Col) and a polarity (Stuck); a
// wordline drop names a bit-line-compute index (Seq).
type Fault struct {
	Kind  Kind   `json:"kind"`
	Row   int    `json:"row,omitempty"`
	Col   int    `json:"col,omitempty"`
	Stuck bool   `json:"stuck,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
}

// String renders a compact site label for observers and error messages.
func (f Fault) String() string {
	switch f.Kind {
	case KindBitFlip:
		return fmt.Sprintf("bitflip@r%dc%d#a%d", f.Row, f.Col, f.Seq)
	case KindStuckSA:
		v := 0
		if f.Stuck {
			v = 1
		}
		return fmt.Sprintf("stuck-sa%d@c%d", v, f.Col)
	case KindWordlineDrop:
		return fmt.Sprintf("wldrop#b%d", f.Seq)
	}
	return f.Kind.String()
}

// Outcome classifies one faulty run against its fault-free baseline.
type Outcome int

const (
	// Masked: the checker passed and the final memory image matches the
	// baseline — the fault never became architecturally visible.
	Masked Outcome = iota
	// Detected: the workload's output checker rejected the result.
	Detected
	// SDC (silent data corruption): the checker passed but the final memory
	// image differs from the fault-free baseline.
	SDC
	// Crash: the simulation aborted — a typed sim.SimError (wild memory
	// access, micro-program watchdog) or a recovered panic.
	Crash
)

var outcomeNames = [...]string{"masked", "detected", "sdc", "crash"}

func (o Outcome) String() string {
	if o >= 0 && int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// MarshalText renders the outcome name for JSON reports.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses an outcome name (the inverse of MarshalText).
func (o *Outcome) UnmarshalText(b []byte) error {
	for i, s := range outcomeNames {
		if s == string(b) {
			*o = Outcome(i)
			return nil
		}
	}
	return fmt.Errorf("faults: unknown outcome %q", b)
}

// Classify maps one cell's (error, final checksum) against the fault-free
// baseline checksum. Errors that unwrap to a *sim.SimError or a
// *sweep.PanicError are crashes; any other error is a checker detection.
func Classify(err error, sum, baseline uint64) Outcome {
	if err == nil {
		if sum == baseline {
			return Masked
		}
		return SDC
	}
	var se *sim.SimError
	var pe *sweep.PanicError
	if errors.As(err, &se) || errors.As(err, &pe) {
		return Crash
	}
	return Detected
}
