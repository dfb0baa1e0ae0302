package dataset

import (
	"math"
	"reflect"
	"testing"

	"nonexposure/internal/geo"
)

func allInUnitSquare(t *testing.T, ds Dataset) {
	t.Helper()
	sq := geo.UnitSquare()
	for i, p := range ds {
		if !sq.Contains(p) {
			t.Fatalf("point %d = %v outside unit square", i, p)
		}
	}
}

func TestUniform(t *testing.T) {
	ds := Uniform(1000, 1)
	if len(ds) != 1000 {
		t.Fatalf("len = %d", len(ds))
	}
	allInUnitSquare(t, ds)
	// Crude uniformity check: each quadrant gets a reasonable share.
	var q [4]int
	for _, p := range ds {
		i := 0
		if p.X > 0.5 {
			i |= 1
		}
		if p.Y > 0.5 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		if c < 150 || c > 350 {
			t.Errorf("quadrant %d has %d of 1000 points; uniform generator skewed", i, c)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := GaussianClusters(500, 8, 0.05, 42)
	b := GaussianClusters(500, 8, 0.05, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must reproduce the same dataset")
	}
	c := GaussianClusters(500, 8, 0.05, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
}

func TestGaussianClustersIsClustered(t *testing.T) {
	ds := GaussianClusters(2000, 4, 0.02, 7)
	allInUnitSquare(t, ds)
	// Clustered data should have much smaller mean nearest-pair distance
	// than uniform data of the same size. Compare mean distance to an
	// arbitrary sample's 10 successors as a cheap proxy.
	meanLocal := func(d Dataset) float64 {
		sum := 0.0
		n := 0
		for i := 0; i+10 < len(d); i += 37 {
			best := math.Inf(1)
			for j := i + 1; j <= i+10; j++ {
				if dd := d[i].Dist(d[j]); dd < best {
					best = dd
				}
			}
			sum += best
			n++
		}
		return sum / float64(n)
	}
	uni := Uniform(2000, 7)
	if meanLocal(ds) >= meanLocal(uni) {
		t.Errorf("clustered dataset not denser locally than uniform (%.4f >= %.4f)",
			meanLocal(ds), meanLocal(uni))
	}
}

func TestGaussianClustersDegenerateArgs(t *testing.T) {
	ds := GaussianClusters(10, 0, 0.05, 1) // clusters < 1 coerced to 1
	if len(ds) != 10 {
		t.Fatalf("len = %d", len(ds))
	}
	allInUnitSquare(t, ds)
}

func TestCaliforniaLike(t *testing.T) {
	ds := CaliforniaLike(5000, 3)
	if len(ds) != 5000 {
		t.Fatalf("len = %d", len(ds))
	}
	allInUnitSquare(t, ds)
}

func TestGridJitter(t *testing.T) {
	ds := GridJitter(100, 0.01, 5)
	if len(ds) != 100 {
		t.Fatalf("len = %d", len(ds))
	}
	allInUnitSquare(t, ds)
	// Zero jitter should produce an exact grid with 0.1 spacing.
	exact := GridJitter(100, 0, 5)
	for _, p := range exact {
		fx := math.Mod(p.X*10-0.5, 1)
		if math.Abs(fx) > 1e-9 && math.Abs(fx-1) > 1e-9 {
			t.Fatalf("grid point %v not on expected lattice", p)
		}
	}
}

func TestRoadLike(t *testing.T) {
	ds := RoadLike(500, 5, 0.005, 9)
	if len(ds) != 500 {
		t.Fatalf("len = %d", len(ds))
	}
	allInUnitSquare(t, ds)
}

func TestReflect01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.5, 0.5},
		{0, 0},
		{1, 1},
		{-0.25, 0.25},
		{1.25, 0.75},
		{2.5, 0.5},
		{-1.5, 0.5},
	}
	for _, tc := range cases {
		if got := reflect01(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("reflect01(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
