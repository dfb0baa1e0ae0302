// Package mobility provides the movement model for studying continuous
// cloaking: the paper's Section VII notes that moving users must re-cloak
// and that repeated requests interact with privacy. The model generates
// per-epoch position snapshots; the experiment harness rebuilds the WPG
// per epoch and measures how re-cloaking costs and cloaked regions evolve.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"nonexposure/internal/geo"
)

// LocalWander keeps every user within a disk around its home position —
// people move around their neighborhood, so town densities stay stable
// (the regime where re-cloaking is meaningful rather than a full
// re-mixing of the population).
type LocalWander struct {
	rng    *rand.Rand
	home   []geo.Point
	pts    []geo.Point
	dst    []geo.Point
	speed  []float64
	radius float64
}

// NewLocalWander starts users at home positions (copied); waypoints are
// sampled within radius of each user's home.
func NewLocalWander(home []geo.Point, radius, speedMin, speedMax float64, seed int64) (*LocalWander, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("mobility: radius %v <= 0", radius)
	}
	if speedMin < 0 || speedMax < speedMin {
		return nil, fmt.Errorf("mobility: bad speed range [%v, %v]", speedMin, speedMax)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &LocalWander{
		rng:    rng,
		home:   append([]geo.Point(nil), home...),
		pts:    append([]geo.Point(nil), home...),
		dst:    make([]geo.Point, len(home)),
		speed:  make([]float64, len(home)),
		radius: radius,
	}
	for i := range m.pts {
		m.dst[i] = m.sampleNear(m.home[i])
		m.speed[i] = speedMin + rng.Float64()*(speedMax-speedMin)
	}
	return m, nil
}

func (m *LocalWander) sampleNear(home geo.Point) geo.Point {
	ang := m.rng.Float64() * 2 * math.Pi
	rad := m.radius * math.Sqrt(m.rng.Float64())
	return geo.Point{
		X: clamp01(home.X + rad*math.Cos(ang)),
		Y: clamp01(home.Y + rad*math.Sin(ang)),
	}
}

// Positions returns the current location of every user. The returned
// slice must not be modified.
func (m *LocalWander) Positions() []geo.Point { return m.pts }

// Step advances every user by dt time units.
func (m *LocalWander) Step(dt float64) {
	for i := range m.pts {
		m.pts[i] = moveToward(m.pts[i], m.dst[i], m.speed[i]*dt)
		if m.pts[i] == m.dst[i] {
			m.dst[i] = m.sampleNear(m.home[i])
		}
	}
}

// moveToward moves p up to dist toward dst, snapping on arrival.
func moveToward(p, dst geo.Point, dist float64) geo.Point {
	dx, dy := dst.X-p.X, dst.Y-p.Y
	d := math.Hypot(dx, dy)
	if d <= dist || d == 0 {
		return dst
	}
	f := dist / d
	return geo.Point{X: p.X + dx*f, Y: p.Y + dy*f}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
