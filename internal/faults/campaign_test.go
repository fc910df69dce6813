package faults_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestCampaignGoldens pins fault-campaign semantics end to end: the report
// `eve-faults -n N -sites S -seed X` writes for the small suite must hash to
// the checked-in digest. Any change to what the bit-level substrate computes,
// where a fault lands or how a cell is classified moves a digest; a pure
// speedup of the datapath must not. -short keeps only the EVE-8 campaign.
func TestCampaignGoldens(t *testing.T) {
	for _, g := range []struct {
		n, sites int
		seed     int64
		sha256   string
	}{
		{8, 8, 1, "59772b67d89d6a1e0e04c9122ced89114c0f9362f379ce9d255097e19f47353b"},
		{1, 3, 7, "7ff0c9695643a16836a423dc3bb91256d58723eb9eae59b74f45668fb73440e1"},
		{2, 3, 7, "8a1a6b8b37d64f8583e1167413fb6f83cc7f80fddbf9ebf5d943b489b046a791"},
		{4, 3, 7, "9abe9ac3f6189efb14f41a8d30e6c6ac2a256d345a24cb0c3e52ca9f77170383"},
		{16, 3, 7, "3b4bf4ca522c74806d07af2d83c2aa2f254d19dc4441df44e1f4f997d6e22fd7"},
		{32, 3, 7, "4dcf01329c1e01cd7f23cace43ac61762d0fac20217a70f1cb4147140fa8b085"},
	} {
		name := fmt.Sprintf("n=%d/sites=%d/seed=%d", g.n, g.sites, g.seed)
		t.Run(name, func(t *testing.T) {
			if testing.Short() && g.n != 8 {
				t.Skip("-short keeps only the EVE-8 campaign")
			}
			kinds, err := faults.ParseKinds("all")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := faults.Run(faults.Config{
				System:         sim.Config{Kind: sim.SysO3EVE, N: g.n},
				Kernels:        workloads.Small(),
				SitesPerKernel: g.sites,
				Kinds:          kinds,
				Seed:           g.seed,
				Workers:        1,
				VerifyBaseline: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := reportSHA(t, rep); got != g.sha256 {
				t.Errorf("report sha256 %s, want %s (%d cells: %d masked, %d detected, %d sdc, %d crash)",
					got, g.sha256, rep.Summary.Total, rep.Summary.Masked, rep.Summary.Detected, rep.Summary.SDC, rep.Summary.Crash)
			}
		})
	}
}

// reportSHA hashes the report as eve-faults writes it: two-space indent and
// a trailing newline.
func reportSHA(t *testing.T, rep *faults.Report) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenConfig is TestCampaignGoldens' EVE-8 campaign: the small suite, 8
// sites per kernel, seed 1.
func goldenConfig() faults.Config {
	return faults.Config{
		System:         sim.Config{Kind: sim.SysO3EVE, N: 8},
		Kernels:        workloads.Small(),
		SitesPerKernel: 8,
		Seed:           1,
		Workers:        1,
		VerifyBaseline: true,
	}
}

// TestCampaignInterruptResumes: a journaled campaign cancelled partway
// through its injections returns *campaign.InterruptedError counting both
// sweeps, and a rerun over its journal runs only the unsettled cells and
// reproduces TestCampaignGoldens' EVE-8 digest.
func TestCampaignInterruptResumes(t *testing.T) {
	cfg := goldenConfig()
	cfg.Journal = filepath.Join(t.TempDir(), "faults.log")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Context = ctx
	stopAt := len(cfg.Kernels) + 15 // every baseline and 15 injections
	cfg.OnJournal = func(depth int) {
		if depth == stopAt {
			cancel()
		}
	}
	_, err := faults.Run(cfg)
	var ie *campaign.InterruptedError
	total := len(cfg.Kernels) * (1 + cfg.SitesPerKernel)
	if !errors.As(err, &ie) || ie.Completed < stopAt || ie.Completed >= total || ie.Total != total {
		t.Fatalf("cancelled campaign returned %v, want *InterruptedError past %d of %d cells", err, stopAt, total)
	}

	cfg.Context, cfg.OnJournal = nil, nil
	var ran startCounter
	cfg.Observer = &ran
	rep, err := faults.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int(ran) != total-ie.Completed {
		t.Errorf("resume ran %d cells, want the %d the interrupted run left", ran, total-ie.Completed)
	}
	if got, want := reportSHA(t, rep), "59772b67d89d6a1e0e04c9122ced89114c0f9362f379ce9d255097e19f47353b"; got != want {
		t.Errorf("resumed report sha256 %s, want %s", got, want)
	}
}

// TestCampaignRejectsForeignJournal: a journal written under another seed,
// another kernel set, another EVE factor or more sites per kernel names
// cells this campaign does not have, and Run refuses it with an error
// naming the journal.
func TestCampaignRejectsForeignJournal(t *testing.T) {
	base := faults.Config{
		System:         sim.Config{Kind: sim.SysO3EVE, N: 8},
		Kernels:        []*workloads.Kernel{workloads.NewVVAdd(256), workloads.NewRedux(256)},
		SitesPerKernel: 3,
		Seed:           5,
		Workers:        1,
		Journal:        filepath.Join(t.TempDir(), "faults.log"),
	}
	if _, err := faults.Run(base); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*faults.Config){
		"seed":    func(c *faults.Config) { c.Seed = 6 },
		"kernels": func(c *faults.Config) { c.Kernels = c.Kernels[:1] },
		"n":       func(c *faults.Config) { c.System.N = 16 },
		"sites":   func(c *faults.Config) { c.SitesPerKernel = 2 },
	} {
		cfg := base
		edit(&cfg)
		var ran startCounter
		cfg.Observer = &ran
		_, err := faults.Run(cfg)
		if err == nil || !strings.Contains(err.Error(), base.Journal) {
			t.Errorf("%s: %v, want an error naming %s", name, err, base.Journal)
		}
		if ran != 0 {
			t.Errorf("%s: %d cells ran before the rejection", name, ran)
		}
	}
}

// TestCampaignMoreSitesRunsNewSites: Sites is prefix-stable, so a rerun
// with more sites per kernel over a smaller campaign's journal runs only
// the new sites, and its report equals an unjournaled run of the larger
// campaign.
func TestCampaignMoreSitesRunsNewSites(t *testing.T) {
	cfg := faults.Config{
		System:         sim.Config{Kind: sim.SysO3EVE, N: 8},
		Kernels:        []*workloads.Kernel{workloads.NewVVAdd(256), workloads.NewRedux(256)},
		SitesPerKernel: 4,
		Seed:           5,
		Workers:        1,
	}
	want, err := faults.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := cfg
	small.SitesPerKernel = 2
	small.Journal = filepath.Join(t.TempDir(), "faults.log")
	if _, err := faults.Run(small); err != nil {
		t.Fatal(err)
	}
	cfg.Journal = small.Journal
	var ran startCounter
	cfg.Observer = &ran
	got, err := faults.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4 {
		t.Errorf("the extended campaign ran %d cells, want its 4 new sites", ran)
	}
	if reportSHA(t, got) != reportSHA(t, want) {
		t.Error("the extended campaign's report differs from an unjournaled run of it")
	}
}
