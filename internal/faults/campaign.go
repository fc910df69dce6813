package faults

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/analytic"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Config describes one fault-injection campaign.
type Config struct {
	// System is the simulated system; campaigns require an EVE system
	// (sim.SysO3EVE) — the substrate being corrupted is the EVE SRAM.
	System sim.Config
	// Kernels are the workloads to inject into.
	Kernels []*workloads.Kernel
	// SitesPerKernel is how many fault sites to sample per kernel.
	SitesPerKernel int
	// Kinds restricts the sampled fault classes; empty selects all.
	Kinds []Kind
	// Seed drives site sampling. Same seed, same campaign.
	Seed int64
	// Workers bounds the sweep pool; ≤0 selects GOMAXPROCS.
	Workers int
	// RetryOnce re-runs failed cells once (sweep.Options.RetryOnce); the
	// retry count is recorded per cell. Deterministic faults fail twice
	// identically, so this only shrugs off transient host trouble.
	RetryOnce bool
	// VerifyBaseline additionally runs each kernel without the datapath and
	// requires identical cycle counts — the zero-fault ≡ golden check.
	VerifyBaseline bool
	// Observer receives sweep progress events; nil disables reporting.
	Observer sweep.Observer
	// Context cancels the campaign: a cancelled baseline phase aborts with
	// an error, a cancelled injection phase flushes a partial report whose
	// unreached cells are simply absent. Nil means never cancelled.
	Context context.Context
}

// CellResult is one (kernel, fault site) injection outcome.
type CellResult struct {
	Kernel   string  `json:"kernel"`
	Fault    Fault   `json:"fault"`
	Outcome  Outcome `json:"outcome"`
	Cycles   int64   `json:"cycles"`
	Checksum uint64  `json:"checksum"`
	Error    string  `json:"error,omitempty"`
	Retries  int     `json:"retries,omitempty"`
}

// KernelReport aggregates one kernel's baseline and injection cells.
type KernelReport struct {
	Kernel           string       `json:"kernel"`
	BaselineCycles   int64        `json:"baseline_cycles"`
	BaselineChecksum uint64       `json:"baseline_checksum"`
	Profile          Profile      `json:"profile"`
	Cells            []CellResult `json:"cells"`
}

// Summary counts cells per outcome across the whole campaign.
type Summary struct {
	Total    int `json:"total"`
	Masked   int `json:"masked"`
	Detected int `json:"detected"`
	SDC      int `json:"sdc"`
	Crash    int `json:"crash"`
}

// Report is a full campaign result. All fields are deterministic in
// (Config.System, Config.Kernels, Config.SitesPerKernel, Config.Kinds,
// Config.Seed): error strings are truncated to their stable first line, and
// cells appear in sampling order regardless of worker count.
type Report struct {
	System  string         `json:"system"`
	Seed    int64          `json:"seed"`
	Kernels []KernelReport `json:"kernels"`
	Summary Summary        `json:"summary"`
}

// Validate reports a configuration Run cannot execute: a system other than
// EVE, an EVE factor outside analytic.Factors, no kernels, or a negative
// site count.
func (cfg Config) Validate() error {
	if cfg.System.Kind != sim.SysO3EVE {
		return fmt.Errorf("faults: campaign requires an EVE system, got %s", cfg.System.Name())
	}
	if !slices.Contains(analytic.Factors, cfg.System.N) {
		return fmt.Errorf("faults: EVE factor %d not in %v", cfg.System.N, analytic.Factors)
	}
	if len(cfg.Kernels) == 0 {
		return fmt.Errorf("faults: campaign has no kernels")
	}
	if cfg.SitesPerKernel < 0 {
		return fmt.Errorf("faults: negative sites per kernel (%d)", cfg.SitesPerKernel)
	}
	return nil
}

// Run executes a campaign: a fault-free baseline phase measuring each
// kernel's checksum and fault-site profile, then one simulation per
// (kernel, site) cell on the sweep pool. It returns Validate's error
// before running any cell. The baseline phase must validate — a failing
// baseline aborts the campaign — while injection cells are expected to
// fail in interesting ways and never abort it.
func Run(cfg Config) (*Report, error) {
	return run(cfg, func(dp *Datapath) isa.Datapath { return dp })
}

// run is Run with each injection cell's armed datapath passed through
// wrap, which tests use to substitute an oracle.
func run(cfg Config, wrap func(*Datapath) isa.Datapath) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindBitFlip, KindStuckSA, KindWordlineDrop}
	}
	sys := cfg.System.Name()
	newDP := func(arm Fault) func(hwvl int) isa.Datapath {
		return func(hwvl int) isa.Datapath {
			dp := NewDatapath(cfg.System.N, hwvl, cfg.System.MaxUProgCycles)
			dp.Arm(arm)
			return wrap(dp)
		}
	}

	// Phase 1: fault-free baselines on the datapath substrate. Each cell
	// closure writes only its own pre-assigned slot, preserving the sweep
	// determinism contract.
	type baseline struct {
		sum  uint64
		prof Profile
	}
	bases := make([]baseline, len(cfg.Kernels))
	bcells := make([]sweep.Cell, len(cfg.Kernels))
	for i, k := range cfg.Kernels {
		i, k := i, k
		bcells[i] = sweep.Cell{Kernel: k.Name, System: sys + " baseline", Run: func() sim.Result {
			var dp *Datapath
			r, sum := sim.RunDatapath(cfg.System, k, func(hwvl int) isa.Datapath {
				dp = NewDatapath(cfg.System.N, hwvl, cfg.System.MaxUProgCycles)
				return dp
			})
			bases[i].sum = sum
			bases[i].prof = dp.Profile()
			if r.Err == nil && cfg.VerifyBaseline {
				if g := sim.Run(cfg.System, k); g.Err != nil || g.Cycles != r.Cycles {
					r.Err = fmt.Errorf("faults: fault-free datapath diverges from golden run (cycles %d vs %d, golden err %v)",
						r.Cycles, g.Cycles, g.Err)
				}
			}
			return r
		}}
	}
	bres, err := sweep.ForEach(bcells, sweep.Options{
		Workers: cfg.Workers, Observer: cfg.Observer, AbortOnError: true,
		Context: cfg.Context,
	})
	if err != nil {
		return nil, fmt.Errorf("faults: baseline phase: %w", err)
	}

	// Phase 2: the injection grid, kernel-major in sampling order.
	type cellMeta struct {
		ki    int
		fault Fault
	}
	var metas []cellMeta
	for ki, k := range cfg.Kernels {
		for _, f := range Sites(kernelSeed(cfg.Seed, k.Name), bases[ki].prof, cfg.SitesPerKernel, kinds) {
			metas = append(metas, cellMeta{ki: ki, fault: f})
		}
	}
	sums := make([]uint64, len(metas))
	tries := make([]int, len(metas))
	cells := make([]sweep.Cell, len(metas))
	for i := range metas {
		i := i
		m := metas[i]
		k := cfg.Kernels[m.ki]
		f := m.fault
		cells[i] = sweep.Cell{Kernel: k.Name, System: sys + "+" + f.String(), Run: func() sim.Result {
			tries[i]++
			r, sum := sim.RunDatapath(cfg.System, k, newDP(f))
			sums[i] = sum
			return r
		}}
	}
	// Detections and crashes are campaign data, not sweep failures: no
	// abort, and the aggregate first-error is deliberately discarded.
	fres, _ := sweep.ForEach(cells, sweep.Options{
		Workers: cfg.Workers, Observer: cfg.Observer, RetryOnce: cfg.RetryOnce,
		Context: cfg.Context,
	})

	rep := &Report{System: sys, Seed: cfg.Seed}
	rep.Kernels = make([]KernelReport, len(cfg.Kernels))
	for i, k := range cfg.Kernels {
		rep.Kernels[i] = KernelReport{
			Kernel:           k.Name,
			BaselineCycles:   bres[i].Cycles,
			BaselineChecksum: bases[i].sum,
			Profile:          bases[i].prof,
			Cells:            []CellResult{},
		}
	}
	for i, m := range metas {
		r := fres[i]
		if errors.Is(r.Err, sweep.ErrSkipped) {
			// Cancellation skipped the cell: it was never simulated, so it
			// is absent from the (partial) report rather than misclassified
			// as a crash.
			continue
		}
		cr := CellResult{
			Kernel:   cfg.Kernels[m.ki].Name,
			Fault:    m.fault,
			Outcome:  Classify(r.Err, sums[i], bases[m.ki].sum),
			Cycles:   r.Cycles,
			Checksum: sums[i],
			Retries:  tries[i] - 1,
		}
		if r.Err != nil {
			cr.Error = firstLine(r.Err.Error())
		}
		rep.Kernels[m.ki].Cells = append(rep.Kernels[m.ki].Cells, cr)
		rep.Summary.Total++
		switch cr.Outcome {
		case Masked:
			rep.Summary.Masked++
		case Detected:
			rep.Summary.Detected++
		case SDC:
			rep.Summary.SDC++
		case Crash:
			rep.Summary.Crash++
		}
	}
	return rep, nil
}
