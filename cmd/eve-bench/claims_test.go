package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/report"
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
// moved. The geomeans are Fig 6's, from the helper that renders it:
// speedups over IO, over the paper's kernel set (Kernel.InGeomean).
func TestPaperClaimsHoldAtFullSize(t *testing.T) {
	rep, err := report.Load(filepath.Join("..", "..", "bench", "full.json"))
	if err != nil {
		t.Fatal(err)
	}
	matrix := &rep.Simulated
	means, err := report.Geomeans(matrix, report.InGeomean(workloads.Default()))
	if err != nil {
		t.Fatal(err)
	}
	var eves []int // EVE columns
	for j, s := range matrix.Systems {
		if strings.HasPrefix(s, "O3+EVE-") {
			eves = append(eves, j)
		}
	}
	if len(eves) == 0 {
		t.Fatal("bench/full.json has no EVE systems")
	}

	eve8, dv := means["O3+EVE-8"], means["O3+DV"]
	best, bestSys := 0.0, ""
	for _, j := range eves {
		if g := means[matrix.Systems[j]]; g > best {
			best, bestSys = g, matrix.Systems[j]
		}
	}
	if eve8 < best*(1-bestEVEMargin) {
		t.Errorf("EVE-8 is no longer the best design point: geomean %.2f, %s %.2f (margin %.0f%%)",
			eve8, bestSys, best, 100*bestEVEMargin)
	}
	if eve8 <= dv {
		t.Errorf("EVE-8 no longer beats O3+DV: geomean %.2f vs %.2f", eve8, dv)
	}
	if eve32 := means["O3+EVE-32"]; eve32 >= eve8 {
		t.Errorf("EVE-32 no longer falls below EVE-8: geomean %.2f vs %.2f", eve32, eve8)
	}
	perArea := (eve8 / analytic.SystemAreaFactor("O3+EVE-8")) / (dv / analytic.SystemAreaFactor("O3+DV"))
	if perArea < 2 {
		t.Errorf("EVE-8's area-normalized performance is %.2f× O3+DV's, the paper claims over 2×", perArea)
	}

	// spmv is the suite's worst EVE case and loses to O3+IV at every
	// factor; redux wins over O3+IV at every factor.
	vsIV, err := report.Speedups(matrix, "O3+IV")
	if err != nil {
		t.Fatal(err)
	}
	spmv, redux := slices.Index(matrix.Kernels, "spmv"), slices.Index(matrix.Kernels, "redux")
	if spmv < 0 || redux < 0 {
		t.Fatalf("bench/full.json lacks spmv or redux: %v", matrix.Kernels)
	}
	for _, j := range eves {
		s := matrix.Systems[j]
		if sp := vsIV[spmv][j]; sp >= 1 {
			t.Errorf("spmv no longer loses on %s: %.3f× O3+IV", s, sp)
		}
		if sp := vsIV[redux][j]; sp <= 1 {
			t.Errorf("redux no longer wins on %s: %.3f× O3+IV", s, sp)
		}
		for i, k := range matrix.Kernels {
			if i != spmv && vsIV[i][j] <= vsIV[spmv][j] {
				t.Errorf("spmv is no longer the worst EVE case on %s: %s %.3f× O3+IV, spmv %.3f×",
					s, k, vsIV[i][j], vsIV[spmv][j])
			}
		}
	}
	t.Logf("EVE-8 %.2f (best %s %.2f), O3+DV %.2f, per-area %.2f×", eve8, bestSys, best, dv, perArea)
}
