package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"

	"repro/internal/analytic"
	"repro/internal/campaign"
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
	// VerifyBaseline additionally runs each kernel without the datapath and
	// requires identical cycle counts — the zero-fault ≡ golden check.
	VerifyBaseline bool
	// Journal and OnJournal are campaign.RunConfig's: the checkpoint log
	// path, whose settled cells a rerun skips, and the durable-depth hook.
	Journal   string
	OnJournal func(depth int)
	// Observer receives sweep progress events; nil disables reporting.
	Observer sweep.Observer
	// Context cancels the campaign: in-flight cells finish and are
	// journaled, pending cells are skipped, and Run returns
	// *campaign.InterruptedError. Nil means never cancelled.
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
// cells appear in sampling order regardless of worker count, or of how
// many kills and resumes a journaled campaign took.
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

// Run executes a campaign in two campaign.Execute sweeps through the
// journal: fault-free baselines measuring each kernel's checksum and
// fault-site profile, then one simulation per (kernel, site) cell. It
// returns Validate's error before running any cell. A failing baseline
// aborts the campaign; injection cells fail in interesting ways as data.
func Run(cfg Config) (*Report, error) {
	return run(cfg, func(dp *Datapath) isa.Datapath { return dp })
}

// baseline is a kernel's fault-free cell as the journal holds it: its
// report row, without the injection cells.
type baseline struct {
	Cell string `json:"cell"`
	KernelReport
	Error string `json:"error,omitempty"`
}

// injection is one (kernel, site) cell as the journal holds it.
type injection struct {
	Cell string `json:"cell"`
	CellResult
}

// cellID is a cell's journal identity: FNV-1a over the inputs that fix its
// outcome — the system and its micro-program budget, the seed and kinds
// that draw the sites, the kernel and its input — and its site index, or
// "baseline". SitesPerKernel is not among them: Sites is prefix-stable, so
// a campaign with more sites per kernel extends a smaller one's journal.
func cellID(cfg Config, kinds []Kind, k *workloads.Kernel, site string) string {
	h := fnv.New64a()
	//evelint:allow errdrop -- hash.Hash.Write is documented to never return an error
	fmt.Fprintf(h, "system=%s max_uprog_cycles=%d seed=%d kinds=%v kernel=%s input=%s site=%s",
		cfg.System.Name(), cfg.System.MaxUProgCycles, cfg.Seed, kinds, k.Name, k.Input, site)
	return fmt.Sprintf("%016x", h.Sum64())
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
	sites := cfg.SitesPerKernel
	baseIDs := make([]string, len(cfg.Kernels))
	siteIDs := make([]string, 0, len(cfg.Kernels)*sites)
	for ki, k := range cfg.Kernels {
		baseIDs[ki] = cellID(cfg, kinds, k, "baseline")
		for s := range sites {
			siteIDs = append(siteIDs, cellID(cfg, kinds, k, strconv.Itoa(s)))
		}
	}
	var journal *campaign.Journal
	if cfg.Journal != "" {
		var err error
		if journal, err = campaign.Open(cfg.Journal, 1, slices.Concat(baseIDs, siteIDs), cfg.OnJournal); err != nil {
			return nil, err
		}
		defer func() {
			_ = journal.Close()
		}()
	}
	opts := sweep.Options{Workers: cfg.Workers, Observer: cfg.Observer, Context: cfg.Context}

	// Phase 1: fault-free baselines on the datapath substrate. Each cell
	// closure writes only its own pre-assigned slot, preserving the sweep
	// determinism contract.
	profs := make([]Profile, len(cfg.Kernels))
	base, err := campaign.Execute(journal, campaign.Cells[baseline]{
		IDs:    baseIDs,
		Resume: func(int, baseline) (bool, error) { return true, nil },
		Sweep: func(pending []int) []sweep.Cell {
			cells := make([]sweep.Cell, len(pending))
			for slot, i := range pending {
				k := cfg.Kernels[i]
				cells[slot] = sweep.Cell{Kernel: k.Name, System: sys + " baseline", Run: func() sim.Result {
					var dp *Datapath
					r, _ := sim.RunDatapath(cfg.System, k, func(hwvl int) isa.Datapath {
						dp = NewDatapath(cfg.System.N, hwvl, cfg.System.MaxUProgCycles)
						return dp
					})
					profs[i] = dp.Profile()
					if r.Err == nil && cfg.VerifyBaseline {
						if g := sim.Run(cfg.System, k); g.Err != nil || g.Cycles != r.Cycles {
							r.Err = fmt.Errorf("faults: fault-free datapath diverges from golden run (cycles %d vs %d, golden err %v)",
								r.Cycles, g.Cycles, g.Err)
						}
					}
					return r
				}}
			}
			return cells
		},
		Freeze: func(i int, r sim.Result) baseline {
			b := baseline{Cell: baseIDs[i], KernelReport: KernelReport{
				Kernel: cfg.Kernels[i].Name, BaselineCycles: r.Cycles, BaselineChecksum: r.MemChecksum, Profile: profs[i],
			}}
			if r.Err != nil {
				b.Error = sweep.FirstLine(r.Err)
			}
			return b
		},
	}, opts)
	if ie, ok := err.(*campaign.InterruptedError); ok {
		ie.Total += len(siteIDs)
	}
	if err != nil {
		return nil, err
	}
	for i, b := range base {
		if b.Error != "" {
			return nil, fmt.Errorf("faults: baseline phase: %s on %s: %s", cfg.Kernels[i].Name, sys, b.Error)
		}
	}

	// Phase 2: the injection grid, kernel-major in sampling order: cell i
	// is site i%sites of kernel i/sites.
	faults := make([]Fault, 0, len(siteIDs))
	for ki, k := range cfg.Kernels {
		faults = append(faults, Sites(kernelSeed(cfg.Seed, k.Name), base[ki].Profile, sites, kinds)...)
	}
	cells, err := campaign.Execute(journal, campaign.Cells[injection]{
		IDs: siteIDs,
		Resume: func(i int, rec injection) (bool, error) {
			if rec.Fault != faults[i] {
				return false, fmt.Errorf("carries fault %s but the campaign samples %s for that ID", rec.Fault, faults[i])
			}
			return true, nil
		},
		Sweep: func(pending []int) []sweep.Cell {
			cells := make([]sweep.Cell, len(pending))
			for slot, i := range pending {
				k, f := cfg.Kernels[i/sites], faults[i]
				cells[slot] = sweep.Cell{Kernel: k.Name, System: sys + "+" + f.String(), Run: func() sim.Result {
					r, _ := sim.RunDatapath(cfg.System, k, func(hwvl int) isa.Datapath {
						dp := NewDatapath(cfg.System.N, hwvl, cfg.System.MaxUProgCycles)
						dp.Arm(f)
						return wrap(dp)
					})
					return r
				}}
			}
			return cells
		},
		// Detections and crashes are campaign data, not failures.
		Freeze: func(i int, r sim.Result) injection {
			c := injection{Cell: siteIDs[i], CellResult: CellResult{
				Kernel:   cfg.Kernels[i/sites].Name,
				Fault:    faults[i],
				Outcome:  Classify(r.Err, r.MemChecksum, base[i/sites].BaselineChecksum),
				Cycles:   r.Cycles,
				Checksum: r.MemChecksum,
			}}
			if r.Err != nil {
				c.Error = sweep.FirstLine(r.Err)
			}
			return c
		},
	}, opts)
	if ie, ok := err.(*campaign.InterruptedError); ok {
		ie.Completed += len(baseIDs)
		ie.Total += len(baseIDs)
	}
	if err != nil {
		return nil, err
	}

	rep := &Report{System: sys, Seed: cfg.Seed, Kernels: make([]KernelReport, len(cfg.Kernels))}
	for i, b := range base {
		rep.Kernels[i] = b.KernelReport
		rep.Kernels[i].Cells = make([]CellResult, 0, sites)
	}
	for i, c := range cells {
		rep.Kernels[i/sites].Cells = append(rep.Kernels[i/sites].Cells, c.CellResult)
		rep.Summary.Total++
		switch c.Outcome {
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
