package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/eve"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/vengine"
	"repro/internal/vreg"
	"repro/internal/workloads"
)

// workload is one benchmark workload: an untimed warm-up that belongs to
// set-up, and a pass — one call into the program's production entry point.
// run makes the call and returns a check closure that verifies the outputs
// afterwards, so the timed region holds the production call alone.
type workload struct {
	name    string
	workers int
	// nominal is one pass's wall time on the seed code (2-vCPU Xeon); a run
	// measures round(seconds/nominal) whole passes, so the parent and the
	// change of a comparison always measure the same cells.
	nominal time.Duration
	warmup  func() error
	run     func(obs sweep.Observer) (check func() pass)
}

// pass is a checked pass: how many cells it attempted and how many failed,
// plus what the traced layer probes need to re-run its cells.
type pass struct {
	attempted, failed int
	digest            string // the pass's report digest (explore, faults)
	cells             []cell
	records           []campaign.Record // explore: the report's cells, for the journal replay
	summary           faults.Summary    // faults: the report's outcome tally
}

// cell is one simulation of a pass as the layer probes re-run it.
type cell struct {
	label  string
	kernel *workloads.Kernel
	cfg    sim.Config
	// faults workload: the cell runs through sim.RunDatapath on a bit-level
	// datapath with arm armed (nil for the kernel's baseline), and must
	// reproduce the report's cycles and checksum.
	datapath bool
	arm      *faults.Fault
	cycles   int64
	checksum uint64
}

// Fixed workload shapes.
var (
	exploreKernels = []string{"vvadd", "spmv", "redux", "pathfinder", "streamcluster-dist", "k-means"}
	faultSystem    = sim.Config{Kind: sim.SysO3EVE, N: 8}
)

const faultSites = 2 // fault sites per kernel

// pinnedSeeds is how many input seeds have pinned report digests. The
// benchmark's --seed maps onto input seeds 1..pinnedSeeds, so every run
// checks its report against a pinned digest.
const pinnedSeeds = 16

// inputSeed maps the benchmark's --seed onto a pinned input seed in
// 1..pinnedSeeds; seeds 1..pinnedSeeds map to themselves.
func inputSeed(seed int64) uint64 {
	return uint64(((seed-1)%pinnedSeeds+pinnedSeeds)%pinnedSeeds) + 1
}

// newWorkload builds the named workload for an input seed. dir holds the
// explore journal; pins are the expected digests (nil while pinning).
func newWorkload(name string, seed uint64, workers int, dir string, pins *digests) (*workload, error) {
	switch name {
	case "explore":
		return explore(seed, workers, dir, pins), nil
	case "faults":
		return faultsWorkload(seed, workers, pins), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want explore or faults)", name)
}

// checkReport fails every cell of a pass whose report digest differs from
// the one pinned for its input seed: a report mismatch cannot be pinned on
// one cell.
func checkReport(p *pass, name string, seed uint64, pinned map[string]string) {
	if want := pinned[seedKey(seed)]; p.digest != want {
		warn("%s seed %d: report digest %s, pinned %q", name, seed, p.digest, want)
		p.failed = p.attempted
	}
}

// exploreSpace is the explore workload's design space at one input seed.
func exploreSpace(seed uint64) campaign.Space {
	return campaign.Space{
		Kernels:     exploreKernels,
		Scales:      []int{256, 1024},
		Seeds:       []uint64{seed},
		N:           []int{1, 4, 8, 32},
		L2Ways:      []int{8, 16},
		LLCKB:       []int{1024, 2048},
		DRAMLatency: []int64{100, 200},
	}
}

// explore is a journaled campaign.Run over small Families kernels and
// non-Table-III hierarchies, fsyncing the journal after every record (the
// eve-explore default). The report bytes must match the seed's pinned
// digest.
func explore(seed uint64, workers int, dir string, pins *digests) *workload {
	space := exploreSpace(seed)
	journal := filepath.Join(dir, fmt.Sprintf("explore-%d.journal", os.Getpid()))
	return &workload{
		name: "explore", workers: workers, nominal: 2500 * time.Millisecond,
		warmup: func() error {
			p := space.Enumerate()[0]
			k, err := p.Workload()
			if err != nil {
				return err
			}
			return sim.Run(p.SystemConfig(space.MaxUProgCycles), k).Err
		},
		run: func(obs sweep.Observer) func() pass {
			rep, err := campaign.Run(campaign.RunConfig{
				Space: space, Journal: journal, Workers: workers, FsyncEvery: 1, Observer: obs,
			})
			return func() pass {
				defer os.Remove(journal)
				p := pass{attempted: space.Size()}
				if err != nil {
					warn("explore: %v", err)
					p.failed = p.attempted
					return p
				}
				p.digest = reportDigest(rep)
				p.records = rep.Cells
				p.failed = rep.Summary.Failed + rep.Summary.Timeout
				for _, r := range rep.Cells {
					k, err := r.Params.Workload()
					if err != nil {
						warn("explore: %v", err)
						p.failed++
						continue
					}
					p.cells = append(p.cells, cell{label: r.Params.String(), kernel: k, cfg: r.Params.SystemConfig(space.MaxUProgCycles)})
				}
				if pins != nil {
					checkReport(&p, "explore", seed, pins.Explore)
				}
				return p
			}
		},
	}
}

// faultsWorkload is faults.Run on O3+EVE-8 over the small suite with every
// fault kind and the baseline verified against the golden run. Detected,
// sdc and crash outcomes are data; a failed baseline or a report that does
// not match the seed's pinned digest fails every cell of the pass.
func faultsWorkload(seed uint64, workers int, pins *digests) *workload {
	kernels := workloads.Small()
	cfg := faults.Config{
		System: faultSystem, Kernels: kernels, SitesPerKernel: faultSites,
		Seed: int64(seed), Workers: workers, VerifyBaseline: true,
	}
	return &workload{
		name: "faults", workers: workers, nominal: 12 * time.Second,
		warmup: func() error {
			r, _ := sim.RunDatapath(faultSystem, kernels[0], func(hwvl int) isa.Datapath {
				return faults.NewDatapath(faultSystem.N, hwvl, faultSystem.MaxUProgCycles)
			})
			return r.Err
		},
		run: func(obs sweep.Observer) func() pass {
			c := cfg
			c.Observer = obs
			rep, err := faults.Run(c)
			return func() pass {
				p := pass{attempted: len(kernels) * (1 + faultSites)}
				if err != nil {
					warn("faults: %v", err)
					p.failed = p.attempted
					return p
				}
				p.attempted = len(kernels) + rep.Summary.Total
				p.digest = reportDigest(rep)
				p.summary = rep.Summary
				p.cells = faultCells(rep, faultSystem, kernels)
				if pins != nil {
					checkReport(&p, "faults", seed, pins.Faults)
				}
				return p
			}
		},
	}
}

// hwvl returns the hardware vector length sim.Run gives cfg's builder, and
// whether the system runs the vectorized kernel.
func hwvl(cfg sim.Config) (int, bool) {
	switch cfg.Kind {
	case sim.SysO3IV:
		return vengine.IVHWVL, true
	case sim.SysO3DV:
		return vengine.DefaultDVConfig().HWVL, true
	case sim.SysO3EVE:
		return vreg.Standard(cfg.N).HWVL(eve.DefaultConfig(cfg.N).Arrays), true
	}
	return 1, false
}

// faultCells lists the cells of a fault campaign on sys as the layer probes
// re-run them: each kernel's baseline, then its injections, each expected to
// reproduce the report's cycles and checksum. The report lists kernels in
// Config.Kernels order; baselines come first, as the campaign runs them.
func faultCells(rep *faults.Report, sys sim.Config, kernels []*workloads.Kernel) []cell {
	var cells []cell
	for i, kr := range rep.Kernels {
		cells = append(cells, cell{label: kr.Kernel + "/baseline", kernel: kernels[i], cfg: sys,
			datapath: true, cycles: kr.BaselineCycles, checksum: kr.BaselineChecksum})
	}
	for i, kr := range rep.Kernels {
		for _, cr := range kr.Cells {
			f := cr.Fault
			cells = append(cells, cell{label: kr.Kernel + "/" + f.String(), kernel: kernels[i], cfg: sys,
				datapath: true, arm: &f, cycles: cr.Cycles, checksum: cr.Checksum})
		}
	}
	return cells
}

// reportDigest hashes a report's JSON bytes.
func reportDigest(rep any) string {
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // reports are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func seedKey(seed uint64) string { return fmt.Sprint(seed) }
