package main

import (
	"fmt"
	"math"
	"slices"
)

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// tail describes the tail percentile chosen for a sample set: the highest
// whole percentile with at least tailBeyond samples above it.
type tail struct {
	P     int // percentile, 0 when n ≤ tailBeyond (the tail is then the max)
	Rank  int // 1-based nearest rank of the tail sample
	N     int // sample count
	Value float64
}

func (t tail) String() string {
	if t.P == 0 {
		return fmt.Sprintf("max of %d (fewer than %d samples beyond any percentile)", t.N, tailBeyond+1)
	}
	return fmt.Sprintf("p%d (rank %d of %d)", t.P, t.Rank, t.N)
}

// tailRank returns the highest whole percentile p whose nearest rank
// ceil(p·n/100) leaves at least tailBeyond samples beyond it, and that rank.
// With n ≤ tailBeyond no percentile qualifies and the maximum stands in.
func tailRank(n int) (p, rank int) {
	if n <= tailBeyond {
		return 0, n
	}
	p = 100 * (n - tailBeyond) / n
	return p, (p*n + 99) / 100
}

// tailOf applies the tail rule to xs (which it sorts).
func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	slices.Sort(xs)
	p, rank := tailRank(len(xs))
	return tail{P: p, Rank: rank, N: len(xs), Value: xs[rank-1]}
}

// median returns the median of xs (which it sorts); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
