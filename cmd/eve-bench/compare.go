package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/report"
)

// Diff is one comparison finding: a metric whose value differs between the
// baseline and the current report.
type Diff struct {
	Cell   string // "kernel/system", or "(report)" for report-level fields
	Metric string // dotted path inside the cell ("cycles", "derived.l2.mpki")
	Base   string
	Cur    string
}

// compareReports diffs cur against base. Simulated metrics are deterministic
// by contract, so *any* difference — a cycle count, a checksum, the tenth
// decimal of a derived float — is a finding: the literal JSON tokens are
// compared, making the check exactly as strict as the byte-identity the CI
// trajectory demands. Host wall time is compared only when bandPct >= 0 and
// both reports carry a host section: a regression is WallNSMin exceeding the
// baseline's by more than bandPct percent. Faster-than-baseline is never a
// finding. Other host fields (allocations, CPU counts) are informational and
// not compared — they vary legitimately across Go versions and machines.
func compareReports(base, cur *report.Report, bandPct float64) ([]Diff, error) {
	var diffs []Diff
	for _, hdr := range []struct{ name, b, c string }{
		{"schema", base.Schema, cur.Schema},
		{"suite", base.Suite, cur.Suite},
	} {
		if hdr.b != hdr.c {
			diffs = append(diffs, Diff{Cell: "(report)", Metric: hdr.name, Base: hdr.b, Cur: hdr.c})
		}
	}
	if len(diffs) > 0 {
		// Different schema or workload scaling: cell-level numbers are not
		// comparable, so stop at the header findings.
		return diffs, nil
	}

	baseCells, err := indexCells(base.Simulated.Cells)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	curCells, err := indexCells(cur.Simulated.Cells)
	if err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	keys := make([]string, 0, len(baseCells))
	for k := range baseCells {
		keys = append(keys, k)
	}
	for k := range curCells {
		if _, ok := baseCells[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	for _, key := range keys {
		b, inBase := baseCells[key]
		c, inCur := curCells[key]
		switch {
		case !inCur:
			diffs = append(diffs, Diff{Cell: key, Metric: "(cell)", Base: "present", Cur: "missing"})
		case !inBase:
			diffs = append(diffs, Diff{Cell: key, Metric: "(cell)", Base: "missing", Cur: "present"})
		default:
			cellDiffs, err := diffCell(key, b, c)
			if err != nil {
				return nil, err
			}
			diffs = append(diffs, cellDiffs...)
		}
	}

	if bandPct >= 0 && base.Host != nil && cur.Host != nil {
		limit := float64(base.Host.WallNSMin) * (1 + bandPct/100)
		if float64(cur.Host.WallNSMin) > limit {
			diffs = append(diffs, Diff{
				Cell:   "(host)",
				Metric: fmt.Sprintf("wall_ns_min (band +%g%%)", bandPct),
				Base:   fmt.Sprintf("%d", base.Host.WallNSMin),
				Cur:    fmt.Sprintf("%d", cur.Host.WallNSMin),
			})
		}
	}
	return diffs, nil
}

// indexCells keys cells by kernel/system, rejecting duplicates.
func indexCells(cells []report.SimCell) (map[string]report.SimCell, error) {
	out := make(map[string]report.SimCell, len(cells))
	for _, c := range cells {
		key := c.Kernel + "/" + c.System
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate cell %s", key)
		}
		out[key] = c
	}
	return out, nil
}

// diffCell compares every leaf of two cells' JSON trees. Numbers compare by
// their literal JSON tokens (json.Number), so a derived float differing in
// the last bit is still a finding — exactly the bit-stability the simulated
// section promises.
func diffCell(key string, base, cur report.SimCell) ([]Diff, error) {
	b, err := flattenJSON(base)
	if err != nil {
		return nil, err
	}
	c, err := flattenJSON(cur)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(b))
	for p := range b {
		paths = append(paths, p)
	}
	for p := range c {
		if _, ok := b[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	var diffs []Diff
	for _, p := range paths {
		bv, inB := b[p]
		cv, inC := c[p]
		if !inB {
			bv = "(absent)"
		}
		if !inC {
			cv = "(absent)"
		}
		if bv != cv {
			diffs = append(diffs, Diff{Cell: key, Metric: p, Base: bv, Cur: cv})
		}
	}
	return diffs, nil
}

// flattenJSON renders v's JSON tree as dotted-leaf-path → literal token.
func flattenJSON(v any) (map[string]string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	flattenInto(out, "", tree)
	return out, nil
}

func flattenInto(out map[string]string, prefix string, node any) {
	switch x := node.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenInto(out, p, x[k])
		}
	case []any:
		for i, e := range x {
			flattenInto(out, fmt.Sprintf("%s[%d]", prefix, i), e)
		}
	case json.Number:
		out[prefix] = x.String()
	case string:
		out[prefix] = x
	case bool:
		out[prefix] = fmt.Sprintf("%t", x)
	case nil:
		out[prefix] = "null"
	}
}

// renderDiffs writes the findings as an aligned, readable table.
func renderDiffs(w io.Writer, diffs []Diff) error {
	cellW, metricW, baseW := len("cell"), len("metric"), len("baseline")
	for _, d := range diffs {
		cellW = max(cellW, len(d.Cell))
		metricW = max(metricW, len(d.Metric))
		baseW = max(baseW, len(d.Base))
	}
	if _, err := fmt.Fprintf(w, "%-*s  %-*s  %-*s  %s\n",
		cellW, "cell", metricW, "metric", baseW, "baseline", "current"); err != nil {
		return err
	}
	for _, d := range diffs {
		if _, err := fmt.Fprintf(w, "%-*s  %-*s  %-*s  %s\n",
			cellW, d.Cell, metricW, d.Metric, baseW, d.Base, d.Cur); err != nil {
			return err
		}
	}
	return nil
}
