package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer is exercised twice where its scope is path-dependent: once
// with the fixture type-checked under a restricted import path (true
// positives plus //evelint:allow escape hatches) and once under an
// out-of-scope path (the same sources must be silent).

func TestSimpurityRestricted(t *testing.T) {
	linttest.Run(t, lint.Simpurity, "repro/internal/sim",
		filepath.Join("testdata", "simpurity", "restricted"))
}

func TestSimpurityUnrestricted(t *testing.T) {
	linttest.Run(t, lint.Simpurity, "repro/internal/report",
		filepath.Join("testdata", "simpurity", "unrestricted"))
}

func TestProbepurityRestricted(t *testing.T) {
	linttest.RunDeps(t, lint.Probepurity, "repro/internal/sim",
		filepath.Join("testdata", "probepurity", "restricted"),
		linttest.Dep{Path: "repro/internal/probe", Dir: filepath.Join("testdata", "probepurity", "probe")})
}

func TestProbepurityUnrestricted(t *testing.T) {
	linttest.RunDeps(t, lint.Probepurity, "repro/cmd/evesim",
		filepath.Join("testdata", "probepurity", "unrestricted"),
		linttest.Dep{Path: "repro/internal/probe", Dir: filepath.Join("testdata", "probepurity", "probe")})
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, lint.Maporder, "repro/internal/report",
		filepath.Join("testdata", "maporder", "basic"))
}

func TestParamlitHotPath(t *testing.T) {
	linttest.Run(t, lint.Paramlit, "repro/internal/mem",
		filepath.Join("testdata", "paramlit", "hot"))
}

func TestParamlitColdPath(t *testing.T) {
	linttest.Run(t, lint.Paramlit, "repro/internal/isa",
		filepath.Join("testdata", "paramlit", "cold"))
}

func TestErrdropInScope(t *testing.T) {
	linttest.Run(t, lint.Errdrop, "repro/internal/report",
		filepath.Join("testdata", "errdrop", "inscope"))
}

func TestErrdropOutOfScope(t *testing.T) {
	linttest.Run(t, lint.Errdrop, "repro/eve",
		filepath.Join("testdata", "errdrop", "outofscope"))
}

func TestHotallocHotPath(t *testing.T) {
	linttest.Run(t, lint.Hotalloc, "repro/internal/mem",
		filepath.Join("testdata", "hotalloc", "hot"))
}

func TestHotallocEmitPath(t *testing.T) {
	linttest.Run(t, lint.Hotalloc, "repro/internal/isa",
		filepath.Join("testdata", "hotalloc", "emit"))
}

func TestHotallocSimPath(t *testing.T) {
	linttest.Run(t, lint.Hotalloc, "repro/internal/sim",
		filepath.Join("testdata", "hotalloc", "simpath"))
}

func TestHotallocColdPath(t *testing.T) {
	linttest.Run(t, lint.Hotalloc, "repro/internal/report",
		filepath.Join("testdata", "hotalloc", "cold"))
}

func TestTelemetryboundaryRestricted(t *testing.T) {
	linttest.RunDeps(t, lint.Telemetryboundary, "repro/internal/sim",
		filepath.Join("testdata", "telemetryboundary", "restricted"),
		linttest.Dep{Path: "repro/internal/telemetry", Dir: filepath.Join("testdata", "telemetryboundary", "telemetry")})
}

func TestTelemetryboundaryUnrestricted(t *testing.T) {
	linttest.RunDeps(t, lint.Telemetryboundary, "repro/internal/report",
		filepath.Join("testdata", "telemetryboundary", "unrestricted"),
		linttest.Dep{Path: "repro/internal/telemetry", Dir: filepath.Join("testdata", "telemetryboundary", "telemetry")})
}
