package mobility

import (
	"math"
	"testing"

	"nonexposure/internal/dataset"
	"nonexposure/internal/geo"
)

func TestLocalWanderSpeedBound(t *testing.T) {
	pts := dataset.Uniform(100, 4)
	m, err := NewLocalWander(pts, 0.05, 0.01, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := append([]geo.Point(nil), m.Positions()...)
	for step := 0; step < 20; step++ {
		m.Step(0.5)
		for i, p := range m.Positions() {
			if d := prev[i].Dist(p); d > 0.02*0.5+1e-9 {
				t.Fatalf("user %d moved %v > max speed*dt", i, d)
			}
			prev[i] = p
		}
	}
}

func TestLocalWanderStaysNearHome(t *testing.T) {
	home := dataset.GaussianClusters(300, 3, 0.05, 6)
	const radius = 0.01
	m, err := NewLocalWander(home, radius, 0.002, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		m.Step(1)
	}
	for i, p := range m.Positions() {
		// Position can exceed radius only transiently via clamping at the
		// world border; allow a small epsilon.
		if d := home[i].Dist(p); d > radius+1e-9 {
			t.Fatalf("user %d drifted %v from home (radius %v)", i, d, radius)
		}
	}
}

func TestLocalWanderValidation(t *testing.T) {
	home := dataset.Uniform(5, 1)
	if _, err := NewLocalWander(home, 0, 0.01, 0.02, 1); err == nil {
		t.Error("radius 0 should error")
	}
	if _, err := NewLocalWander(home, 0.1, 0.02, 0.01, 1); err == nil {
		t.Error("inverted speed range should error")
	}
}

func TestMoveTowardSnapsAtDestination(t *testing.T) {
	p := geo.Point{X: 0.1, Y: 0.1}
	dst := geo.Point{X: 0.1001, Y: 0.1}
	got := moveToward(p, dst, 1)
	if got != dst {
		t.Errorf("moveToward should snap: %v", got)
	}
	got = moveToward(dst, dst, 0.5)
	if got != dst {
		t.Errorf("zero-distance move changed position: %v", got)
	}
	// Partial move: exact distance.
	got = moveToward(geo.Point{X: 0, Y: 0}, geo.Point{X: 1, Y: 0}, 0.25)
	if math.Abs(got.X-0.25) > 1e-12 || got.Y != 0 {
		t.Errorf("partial move = %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	pts := dataset.Uniform(50, 9)
	a, err := NewLocalWander(pts, 0.05, 0.01, 0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLocalWander(pts, 0.05, 0.01, 0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		a.Step(1)
		b.Step(1)
	}
	for i := range a.Positions() {
		if a.Positions()[i] != b.Positions()[i] {
			t.Fatalf("same seed diverged at user %d", i)
		}
	}
}
