package faults_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

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
			// The same encoding eve-faults writes: two-space indent and a
			// trailing newline.
			h := sha256.New()
			enc := json.NewEncoder(h)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sha256 {
				t.Errorf("report sha256 %s, want %s (%d cells: %d masked, %d detected, %d sdc, %d crash)",
					got, g.sha256, rep.Summary.Total, rep.Summary.Masked, rep.Summary.Detected, rep.Summary.SDC, rep.Summary.Crash)
			}
		})
	}
}
