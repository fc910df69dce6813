package campaign

import (
	"cmp"
	"slices"
)

// Frontier is the Pareto-optimal set of one workload's cells — one
// (kernel, scale, seed) triple — under simultaneous minimization of
// cycles, area factor and array energy. It answers the campaign's
// headline question: which (n, geometry, DRAM) points are worth building,
// and which are dominated by a cheaper-or-faster neighbour.
type Frontier struct {
	Kernel string   `json:"kernel"`
	Scale  int      `json:"scale"`
	Seed   uint64   `json:"seed"`
	Points []Record `json:"points"`
}

// dominates reports whether a is at least as good as b on every objective
// and strictly better on at least one (minimizing all three).
func dominates(a, b Record) bool {
	if a.Cycles > b.Cycles || a.AreaFactor > b.AreaFactor || a.EnergyReadEq > b.EnergyReadEq {
		return false
	}
	return a.Cycles < b.Cycles || a.AreaFactor < b.AreaFactor || a.EnergyReadEq < b.EnergyReadEq
}

// Frontiers groups the ok cells by workload — in first-appearance order,
// which for a report's cells is enumeration order — and keeps each group's
// non-dominated points, sorted by (area, cycles, energy) for stable output.
// Failed and timed-out cells carry no simulated objectives and never enter
// a frontier.
func Frontiers(cells []Record) []Frontier {
	type key struct {
		kernel string
		scale  int
		seed   uint64
	}
	index := map[key]int{}
	var out []Frontier
	for _, c := range cells {
		if c.Status != StatusOK {
			continue
		}
		k := key{c.Params.Kernel, c.Params.Scale, c.Params.Seed}
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, Frontier{Kernel: k.kernel, Scale: k.scale, Seed: k.seed})
		}
		out[i].Points = append(out[i].Points, c)
	}
	for i := range out {
		out[i].Points = paretoFilter(out[i].Points)
	}
	return out
}

// paretoFilter keeps the non-dominated records. No record dominates
// itself or an equal one, so each is checked against all of pts.
func paretoFilter(pts []Record) []Record {
	var keep []Record
	for _, p := range pts {
		if !slices.ContainsFunc(pts, func(q Record) bool { return dominates(q, p) }) {
			keep = append(keep, p)
		}
	}
	slices.SortStableFunc(keep, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.AreaFactor, b.AreaFactor), cmp.Compare(a.Cycles, b.Cycles), cmp.Compare(a.EnergyReadEq, b.EnergyReadEq))
	})
	return keep
}
