package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// bestEVEMargin is how far EVE-8's Fig 6 geomean may fall below the best
// EVE-n's while EVE-8 still counts as the best design point. The paper
// has EVE-8 best outright; this model has it 2.1% behind EVE-16, which
// EXPERIMENTS.md calls a tie. Five percent keeps that reading and fails
// once EVE-8 falls clearly behind.
const bestEVEMargin = 0.05

// TestPaperClaimsHoldAtFullSize encodes the conclusions EXPERIMENTS.md
// draws from the full-size matrix ("Shape agreement", the area-normalized
// table and the new-kernel rows) as assertions over bench/full.json, which
// TestFullBaselineIsCurrent keeps current. A model change that flips one
// must refresh bench/full.json, and this test then says which claim
// moved. Speedups are over IO, geomeans over the paper's kernel set
// (Kernel.InGeomean), as Fig 6 renders them.
func TestPaperClaimsHoldAtFullSize(t *testing.T) {
	rep, err := loadReport(filepath.Join("..", "..", "bench", "full.json"))
	if err != nil {
		t.Fatal(err)
	}
	cycles := map[[2]string]int64{}
	for _, c := range rep.Simulated.Cells {
		cycles[[2]string{c.Kernel, c.System}] = c.Cycles
	}
	at := func(kernel, system string) float64 {
		c, ok := cycles[[2]string{kernel, system}]
		if !ok || c <= 0 {
			t.Fatalf("bench/full.json has no cycles for %s on %s", kernel, system)
		}
		return float64(c)
	}
	var geoSet []string
	for _, k := range workloads.Default() {
		if k.InGeomean() {
			geoSet = append(geoSet, k.Name)
		}
	}
	geomean := func(system string) float64 {
		var sp []float64
		for _, k := range geoSet {
			sp = append(sp, stats.Speedup(at(k, "IO"), at(k, system)))
		}
		return stats.Geomean(sp)
	}
	var eves []string
	for _, s := range rep.Simulated.Systems {
		if strings.HasPrefix(s, "O3+EVE-") {
			eves = append(eves, s)
		}
	}
	if len(eves) == 0 {
		t.Fatal("bench/full.json has no EVE systems")
	}

	eve8, dv := geomean("O3+EVE-8"), geomean("O3+DV")
	best, bestSys := 0.0, ""
	for _, s := range eves {
		if g := geomean(s); g > best {
			best, bestSys = g, s
		}
	}
	if eve8 < best*(1-bestEVEMargin) {
		t.Errorf("EVE-8 is no longer the best design point: geomean %.2f, %s %.2f (margin %.0f%%)",
			eve8, bestSys, best, 100*bestEVEMargin)
	}
	if eve8 <= dv {
		t.Errorf("EVE-8 no longer beats O3+DV: geomean %.2f vs %.2f", eve8, dv)
	}
	if eve32 := geomean("O3+EVE-32"); eve32 >= eve8 {
		t.Errorf("EVE-32 no longer falls below EVE-8: geomean %.2f vs %.2f", eve32, eve8)
	}
	perArea := (eve8 / analytic.SystemAreaFactor("O3+EVE-8")) / (dv / analytic.SystemAreaFactor("O3+DV"))
	if perArea < 2 {
		t.Errorf("EVE-8's area-normalized performance is %.2f× O3+DV's, the paper claims over 2×", perArea)
	}

	// spmv is the suite's worst EVE case and loses to O3+IV at every
	// factor; redux wins over O3+IV at every factor.
	for _, s := range eves {
		vsIV := func(k string) float64 { return stats.Speedup(at(k, "O3+IV"), at(k, s)) }
		if sp := vsIV("spmv"); sp >= 1 {
			t.Errorf("spmv no longer loses on %s: %.3f× O3+IV", s, sp)
		}
		if sp := vsIV("redux"); sp <= 1 {
			t.Errorf("redux no longer wins on %s: %.3f× O3+IV", s, sp)
		}
		for _, k := range rep.Simulated.Kernels {
			if k != "spmv" && vsIV(k) <= vsIV("spmv") {
				t.Errorf("spmv is no longer the worst EVE case on %s: %s %.3f× O3+IV, spmv %.3f×",
					s, k, vsIV(k), vsIV("spmv"))
			}
		}
	}
	t.Logf("EVE-8 %.2f (best %s %.2f), O3+DV %.2f, per-area %.2f×", eve8, bestSys, best, dv, perArea)
}
