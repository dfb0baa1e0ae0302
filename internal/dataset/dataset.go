// Package dataset generates synthetic user/POI datasets in
// the unit square.
//
// The paper's evaluation places one user at every point of the USGS
// California POI dataset (104,770 points, normalized to the unit square).
// That dataset is not redistributable here, so this package substitutes
// deterministic synthetic generators. The clustering and bounding
// algorithms consume only the weighted proximity graph built from these
// points, so what matters is the induced topology; the Gaussian-cluster
// generator reproduces the clustered, small-world-ish structure of real
// POI data (POIs concentrate around cities and roads), while the uniform
// and road-like generators provide sensitivity checks.
package dataset

import (
	"math"
	"math/rand"

	"nonexposure/internal/geo"
)

// CaliforniaPOISize is the size of the dataset used throughout the paper's
// evaluation (Table I: "# of users 104,770").
const CaliforniaPOISize = 104770

// DeltaFor is the radio range δ at which n users in the unit square
// expect as many radio neighbours as the paper's default δ = 2×10⁻³
// gives the CaliforniaPOISize users of Table I.
func DeltaFor(n int) float64 {
	return 2e-3 * math.Sqrt(float64(CaliforniaPOISize)/float64(n))
}

// Dataset is a set of user/POI locations in the unit square. The index of
// a point is the user's identifier throughout the system.
type Dataset []geo.Point

// Uniform returns n points drawn uniformly from the unit square.
func Uniform(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := make(Dataset, n)
	for i := range ds {
		ds[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return ds
}

// GaussianClusters returns n points drawn from a mixture of `clusters`
// isotropic Gaussians with standard deviation sigma, centers uniform in
// the unit square, samples clamped by reflection into [0,1]². This is the
// default stand-in for the California POI dataset.
func GaussianClusters(n, clusters int, sigma float64, seed int64) Dataset {
	if clusters < 1 {
		clusters = 1
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geo.Point, clusters)
	for i := range centers {
		centers[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	ds := make(Dataset, n)
	for i := range ds {
		c := centers[rng.Intn(clusters)]
		ds[i] = geo.Point{
			X: reflect01(c.X + rng.NormFloat64()*sigma),
			Y: reflect01(c.Y + rng.NormFloat64()*sigma),
		}
	}
	return ds
}

// Towns scatters n points over `towns` disk-shaped settlements of varying
// size but *uniform density*: each town's point count is proportional to
// its area, so a user sees roughly the same number of radio neighbors in
// every town. coverage is the fraction of the unit square the towns cover
// (smaller coverage = denser towns). Town centers are uniform; towns may
// overlap, which only makes the overlap denser (like a conurbation).
//
// This is the shape of real POI data: dense settlements separated by
// near-empty space, without the heavy low-density tails a Gaussian
// mixture produces (tails create sprawling "whale" clusters no real road
// network exhibits).
func Towns(n, towns int, coverage float64, seed int64) Dataset {
	if towns < 1 {
		towns = 1
	}
	if coverage <= 0 || coverage > 1 {
		coverage = 0.05
	}
	rng := rand.New(rand.NewSource(seed))
	// Random relative sizes; areas proportional to weights.
	weights := make([]float64, towns)
	total := 0.0
	for i := range weights {
		weights[i] = 0.3 + rng.Float64()
		total += weights[i]
	}
	type town struct {
		c geo.Point
		r float64
	}
	ts := make([]town, towns)
	cum := make([]float64, towns) // cumulative weight for sampling
	acc := 0.0
	for i := range ts {
		area := coverage * weights[i] / total
		ts[i] = town{
			c: geo.Point{X: rng.Float64(), Y: rng.Float64()},
			r: math.Sqrt(area / math.Pi),
		}
		acc += weights[i]
		cum[i] = acc
	}
	ds := make(Dataset, n)
	for i := range ds {
		// Pick a town proportionally to its area (= weight).
		x := rng.Float64() * total
		lo := 0
		for cum[lo] < x {
			lo++
		}
		t := ts[lo]
		// Uniform point in the disk.
		ang := rng.Float64() * 2 * math.Pi
		rad := t.r * math.Sqrt(rng.Float64())
		ds[i] = geo.Point{
			X: reflect01(t.c.X + rad*math.Cos(ang)),
			Y: reflect01(t.c.Y + rad*math.Sin(ang)),
		}
	}
	return ds
}

// CaliforniaLike returns the default experiment dataset: a seeded
// town-mixture sized like the California POI dataset. Town count and
// coverage are calibrated so that, under the paper's default δ = 2×10⁻³,
// the Fig. 9 degree sweep lands near the paper's reported values
// (average WPG degree ≈ 3.8 at M = 4 up to ≈ 23 at M = 64).
func CaliforniaLike(n int, seed int64) Dataset {
	return Towns(n, 64, 0.066, seed)
}

// GridJitter returns roughly n points on a √n × √n grid, each perturbed
// uniformly by ±jitter on both axes (reflected into the unit square).
// Useful for near-regular topologies (Corollary 4.2's regular graphs).
func GridJitter(n int, jitter float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Sqrt(float64(n))))
	step := 1.0 / float64(side)
	ds := make(Dataset, 0, n)
	for i := 0; i < side && len(ds) < n; i++ {
		for j := 0; j < side && len(ds) < n; j++ {
			x := (float64(i) + 0.5) * step
			y := (float64(j) + 0.5) * step
			ds = append(ds, geo.Point{
				X: reflect01(x + (rng.Float64()*2-1)*jitter),
				Y: reflect01(y + (rng.Float64()*2-1)*jitter),
			})
		}
	}
	return ds
}

// RoadLike scatters n points along `roads` random line segments with a
// small lateral spread, mimicking POIs strung along a road network.
func RoadLike(n, roads int, spread float64, seed int64) Dataset {
	if roads < 1 {
		roads = 1
	}
	rng := rand.New(rand.NewSource(seed))
	type segment struct{ a, b geo.Point }
	segs := make([]segment, roads)
	for i := range segs {
		segs[i] = segment{
			a: geo.Point{X: rng.Float64(), Y: rng.Float64()},
			b: geo.Point{X: rng.Float64(), Y: rng.Float64()},
		}
	}
	ds := make(Dataset, n)
	for i := range ds {
		s := segs[rng.Intn(roads)]
		t := rng.Float64()
		ds[i] = geo.Point{
			X: reflect01(s.a.X + t*(s.b.X-s.a.X) + rng.NormFloat64()*spread),
			Y: reflect01(s.a.Y + t*(s.b.Y-s.a.Y) + rng.NormFloat64()*spread),
		}
	}
	return ds
}

// reflect01 folds v into [0,1] by reflection at the borders, preserving
// local density better than clamping.
func reflect01(v float64) float64 {
	for v < 0 || v > 1 {
		if v < 0 {
			v = -v
		}
		if v > 1 {
			v = 2 - v
		}
	}
	return v
}
