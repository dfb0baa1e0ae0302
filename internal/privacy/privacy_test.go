package privacy

import (
	"math/rand"
	"reflect"
	"testing"

	"nonexposure/internal/core"
	"nonexposure/internal/geo"
)

func clusterFixture(n int, seed int64) (pts []geo.Point, members []int32, anchor geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	pts = make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			X: 0.4 + rng.Float64()*0.1,
			Y: 0.5 + rng.Float64()*0.08,
		}
	}
	members = make([]int32, 0, 12)
	for i := 0; i < 12; i++ {
		members = append(members, int32(i*3))
	}
	return pts, members, pts[members[0]]
}

func TestRecordMatchesBoundRect(t *testing.T) {
	pts, members, anchor := clusterFixture(60, 1)
	scale := core.DefaultRectScale(len(members), len(pts))
	for _, pol := range []core.IncrementPolicy{
		core.NewSecureIncrementForCluster(1, 1000, len(members)),
		core.LinearIncrement{Step: 0.1},
		core.ExpIncrement{Init: 0.25},
	} {
		tr, res, err := Record(pts, members, anchor, scale, pol, 1)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		want, err := core.BoundRect(pts, members, anchor, scale, pol, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: recorded result %+v != direct %+v", pol.Name(), res, want)
		}
		if tr == nil || len(tr.Members) != len(members) {
			t.Fatalf("%s: bad transcript", pol.Name())
		}
	}
}

// Soundness: the knowledge rectangle must always contain the member's
// true position — the observer's inference can never be wrong.
func TestKnowledgeContainsTruePosition(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		pts, members, anchor := clusterFixture(80, seed)
		scale := core.DefaultRectScale(len(members), len(pts))
		for _, pol := range []core.IncrementPolicy{
			core.NewSecureIncrementForCluster(1, 1000, len(members)),
			core.LinearIncrement{Step: 0.07},
			core.ExpIncrement{Init: 0.3},
		} {
			tr, _, err := Record(pts, members, anchor, scale, pol, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range members {
				k := tr.Knowledge(i)
				if !k.Contains(pts[m]) {
					t.Fatalf("seed %d %s: member %d at %v escapes knowledge rect %v",
						seed, pol.Name(), m, pts[m], k)
				}
			}
		}
	}
}

// The finer the increments, the smaller the knowledge rectangles: linear
// with a tiny step must leak more than exponential doubling.
func TestFinerIncrementsLeakMore(t *testing.T) {
	pts, members, anchor := clusterFixture(80, 3)
	scale := core.DefaultRectScale(len(members), len(pts))
	fine, _, err := Record(pts, members, anchor, scale, core.LinearIncrement{Step: 0.02}, 1)
	if err != nil {
		t.Fatal(err)
	}
	coarse, _, err := Record(pts, members, anchor, scale, core.ExpIncrement{Init: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fine.MeanKnowledgeArea() >= coarse.MeanKnowledgeArea() {
		t.Errorf("fine increments should leave smaller knowledge areas: %v vs %v",
			fine.MeanKnowledgeArea(), coarse.MeanKnowledgeArea())
	}
}

func TestKnowledgeClampedToWorld(t *testing.T) {
	pts, members, anchor := clusterFixture(60, 4)
	scale := core.DefaultRectScale(len(members), len(pts))
	tr, _, err := Record(pts, members, anchor, scale, core.ExpIncrement{Init: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	world := geo.UnitSquare()
	for i := range members {
		k := tr.Knowledge(i)
		if !world.ContainsRect(k) {
			t.Errorf("knowledge rect %v leaves the unit square", k)
		}
	}
	if !tr.Knowledge(-1).IsEmpty() || !tr.Knowledge(len(members)).IsEmpty() {
		t.Error("out-of-range member should yield an empty rect")
	}
}

func TestAnonymitySetSize(t *testing.T) {
	pts, members, anchor := clusterFixture(200, 5)
	scale := core.DefaultRectScale(len(members), len(pts))
	tr, _, err := Record(pts, members, anchor, scale,
		core.NewSecureIncrementForCluster(1, 1000, len(members)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		setSize := tr.AnonymitySetSize(i, pts)
		if setSize < 1 {
			t.Fatalf("member %d: anonymity set %d — must at least contain itself", m, setSize)
		}
	}
	// The mean knowledge area must be positive (progressive bounding
	// never pins anyone exactly).
	if tr.MeanKnowledgeArea() <= 0 {
		t.Error("mean knowledge area should be positive for progressive bounding")
	}
}

func TestMeanKnowledgeAreaEmptyTranscript(t *testing.T) {
	tr := &Transcript{}
	if tr.MeanKnowledgeArea() != 0 {
		t.Error("empty transcript should report 0")
	}
}
