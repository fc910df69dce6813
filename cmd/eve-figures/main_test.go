package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/report"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current rendering")

// loadMatrix reads the simulated section of bench/<file>, which
// TestCheckedInBaselineIsCurrent (baseline.json) and
// TestFullBaselineIsCurrent (full.json) in cmd/eve-bench hold to the
// simulator bit for bit.
func loadMatrix(t *testing.T, file string) *report.Simulated {
	t.Helper()
	rep, err := report.Load(filepath.Join("..", "..", "bench", file))
	if err != nil {
		t.Fatal(err)
	}
	return &rep.Simulated
}

// TestFiguresTxtIsCurrent pins FIGURES.txt, the canonical stdout of
// `eve-figures` (every figure, full-size suite), to its rendering of
// bench/full.json. It simulates nothing, so it runs under -short too: a
// model change that refreshes bench/full.json must refresh FIGURES.txt,
// with
//
//	go run ./cmd/eve-figures > FIGURES.txt
func TestFiguresTxtIsCurrent(t *testing.T) {
	got, err := render(experiment("all"), loadMatrix(t, "full.json"), report.InGeomean(workloads.Default()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "FIGURES.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("FIGURES.txt diverges from the rendering of bench/full.json at byte %d; "+
			"refresh it with the command on this test's doc comment", firstDiff([]byte(got), want))
	}
}

// TestExperimentsGeomeansAreCurrent checks the numbers EXPERIMENTS.md
// copies from the full-size Fig 6 — the "Ours" column of its geomean table
// and both rows of its area-normalized table — against their rendering
// from bench/full.json at %.2f, so a model change that refreshes
// bench/full.json cannot leave the prose behind.
func TestExperimentsGeomeansAreCurrent(t *testing.T) {
	means, err := report.Geomeans(loadMatrix(t, "full.json"), report.InGeomean(workloads.Default()))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(blob)
	check := func(table, row, column, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("EXPERIMENTS.md %s table, %s %s: %q, bench/full.json renders %q", table, row, column, got, want)
		}
	}

	fig6 := markdownTable(t, doc, "| System | Paper | Ours |")
	for _, row := range fig6 {
		sys := row[0]
		if strings.HasPrefix(sys, "EVE-") {
			sys = "O3+" + sys
		}
		g, ok := means[sys]
		if !ok {
			t.Errorf("EXPERIMENTS.md Fig 6 table names %q, which bench/full.json lacks", row[0])
			continue
		}
		ours, _, _ := strings.Cut(row[2], "×")
		check("Fig 6", row[0], "Ours", ours, fmt.Sprintf("%.2f", g))
	}
	if len(fig6) < 8 {
		t.Errorf("EXPERIMENTS.md Fig 6 table has %d rows, want 8", len(fig6))
	}

	area := markdownTable(t, doc, "| System | geomean | area | per-area | ratio to DV |")
	perArea := func(sys string) float64 { return means[sys] / analytic.SystemAreaFactor(sys) }
	for _, row := range area {
		sys := row[0]
		if _, ok := means[sys]; !ok {
			t.Errorf("EXPERIMENTS.md area-normalized table names %q, which bench/full.json lacks", sys)
			continue
		}
		check("area-normalized", sys, "geomean", row[1], fmt.Sprintf("%.2f", means[sys]))
		check("area-normalized", sys, "area", row[2], fmt.Sprintf("%.2f×", analytic.SystemAreaFactor(sys)))
		check("area-normalized", sys, "per-area", row[3], fmt.Sprintf("%.2f", perArea(sys)))
		if sys != "O3+DV" { // DV's ratio to itself is 1 by definition
			ratio, _, _ := strings.Cut(row[4], "×")
			check("area-normalized", sys, "ratio to DV", ratio, fmt.Sprintf("%.2f", perArea(sys)/perArea("O3+DV")))
		}
	}
	if len(area) != 2 {
		t.Errorf("EXPERIMENTS.md area-normalized table has %d rows, want 2", len(area))
	}
}

// markdownTable returns the body rows of the Markdown table whose header
// line is header, each cell trimmed and stripped of bold markers.
func markdownTable(t *testing.T, doc, header string) [][]string {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n"+header+"\n")
	if !ok {
		t.Fatalf("no table headed %q", header)
	}
	var rows [][]string
	for _, line := range strings.Split(body, "\n")[1:] { // past the |---| line
		if !strings.HasPrefix(line, "|") {
			break
		}
		var row []string
		for _, cell := range strings.Split(strings.Trim(line, "|"), "|") {
			row = append(row, strings.TrimSpace(strings.ReplaceAll(cell, "**", "")))
		}
		rows = append(rows, row)
	}
	return rows
}

// TestFigureTextGoldens pins the exact stdout of `eve-figures -small
// -exp=fig7`, `-exp=fig8` and `-exp=energy` — the EVE-only figures, which
// read each cell's Fig 7 breakdown, VMU stall fraction and array energy —
// rendered from bench/baseline.json, the small suite's simulated matrix.
// Refresh with:
//
//	go test ./cmd/eve-figures -run TestFigureTextGoldens -update
func TestFigureTextGoldens(t *testing.T) {
	matrix := loadMatrix(t, "baseline.json")
	geo := report.InGeomean(workloads.Small())
	for _, exp := range []string{"fig7", "fig8", "energy"} {
		t.Run(exp, func(t *testing.T) {
			got, err := render(experiment(exp), matrix, geo)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, exp+".small.golden.txt", []byte(got))
		})
	}
}

// checkGolden compares got with testdata/name byte for byte, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s.\n"+
			"If the timing-model change is intentional, refresh with -update.\n"+
			"got %d bytes, want %d bytes; first divergence at byte %d",
			golden, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
