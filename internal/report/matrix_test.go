package report

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %f, want 4", g)
	}
	if g := geomean([]float64{5}); math.Abs(g-5) > 1e-9 {
		t.Fatalf("geomean(5) = %f", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %f, want 0", g)
	}
	// Non-positive entries are ignored rather than poisoning the product.
	if g := geomean([]float64{0, -3, 4}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean with non-positives = %f, want 4", g)
	}
}

// Property: the geomean of positive values lies between min and max.
func TestGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.MaxFloat64, 0.0
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// geomean works in log space, so products that would overflow a float64
// must still come out finite and exact.
func TestGeomeanLargeValues(t *testing.T) {
	big := 1e300
	xs := []float64{big, big, big, big}
	if g := geomean(xs); math.IsInf(g, 0) || math.Abs(g/big-1) > 1e-9 {
		t.Fatalf("geomean of huge values = %g, want %g", g, big)
	}
}

func TestSpeedup(t *testing.T) {
	if speedup(100, 25) != 4 {
		t.Fatal("speedup wrong")
	}
	if speedup(100, 0) != 0 {
		t.Fatal("speedup by zero should be 0")
	}
}
