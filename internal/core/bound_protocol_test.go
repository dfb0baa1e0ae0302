package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nonexposure/internal/geo"
	"nonexposure/internal/trace"
)

func TestProgressiveUpperBoundLinearScenario(t *testing.T) {
	// Offsets 0.5, 1.5, 2.4 with unit step: three rounds, bounds 1, 2, 3.
	offsets := []float64{0.5, 1.5, 2.4}
	res, err := ProgressiveUpperBound(offsets, 1, LinearIncrement{Step: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", res.Rounds)
	}
	if res.Bound != 3 {
		t.Errorf("Bound = %v, want 3", res.Bound)
	}
	if res.Messages != 3+2+1 {
		t.Errorf("Messages = %v, want 6", res.Messages)
	}
	if !math.IsInf(res.Exposure[0], 1) {
		t.Errorf("first-round agreer should have infinite exposure interval, got %v", res.Exposure[0])
	}
	if math.Abs(res.Exposure[1]-1) > 1e-12 || math.Abs(res.Exposure[2]-1) > 1e-12 {
		t.Errorf("later exposures = %v, want 1 each", res.Exposure[1:])
	}
}

func TestProgressiveUpperBoundNegativeOffsets(t *testing.T) {
	// Users below the anchor agree in round one but still cost a message.
	res, err := ProgressiveUpperBound([]float64{-0.5, -0.1, 0.2}, 1, LinearIncrement{Step: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
	if res.Messages != 3 {
		t.Errorf("Messages = %v, want 3", res.Messages)
	}
	if res.Bound < 0.2 {
		t.Errorf("Bound = %v must cover max offset", res.Bound)
	}
}

func TestProgressiveUpperBoundScaleApplied(t *testing.T) {
	// With scale 10 and step 0.5 the first bound is 5.
	res, err := ProgressiveUpperBound([]float64{4}, 10, LinearIncrement{Step: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Bound != 5 {
		t.Errorf("rounds=%d bound=%v, want 1 round at bound 5", res.Rounds, res.Bound)
	}
}

func TestProgressiveUpperBoundErrors(t *testing.T) {
	if _, err := ProgressiveUpperBound([]float64{1}, 0, LinearIncrement{Step: 1}, 1); err == nil {
		t.Error("scale 0 should error")
	}
	if _, err := ProgressiveUpperBound(nil, 1, LinearIncrement{Step: 1}, 1); err == nil {
		t.Error("no participants should error")
	}
	if _, err := ProgressiveUpperBound([]float64{1}, 1, LinearIncrement{Step: 0}, 1); err == nil {
		t.Error("non-positive increment should error")
	}
}

func TestExpIncrementDoubles(t *testing.T) {
	// Bound sequence with Init 0.25: 0.25, 0.5, 1.0, 2.0, ...
	e := ExpIncrement{Init: 0.25}
	x := 0.0
	var seq []float64
	for i := 0; i < 4; i++ {
		x += e.Next(5, x)
		seq = append(seq, x)
	}
	want := []float64{0.25, 0.5, 1.0, 2.0}
	for i := range want {
		if math.Abs(seq[i]-want[i]) > 1e-12 {
			t.Fatalf("bound sequence = %v, want %v", seq, want)
		}
	}
}

func TestSecureIncrementMatchesExample53(t *testing.T) {
	s := NewSecureIncrement(1, 1000)
	m := defaultModel()
	_, cStar, rStar, _ := m.UnaryOptimum()
	for _, n := range []int{2, 7, 15} {
		got := s.Next(n, 0.3)
		want := float64(n) * (cStar - rStar) / 2000
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: secure increment %v, want %v", n, got, want)
		}
	}
	if s.Name() != "secure" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestDPIncrementPolicy(t *testing.T) {
	pol, err := NewDPIncrement(defaultModel(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "secure-dp" {
		t.Errorf("Name = %q", pol.Name())
	}
	for n := 1; n <= 12; n++ { // beyond MaxN must clamp, not panic
		if inc := pol.Next(n, 0); inc <= 0 {
			t.Errorf("n=%d: increment %v", n, inc)
		}
	}
	if inc := pol.Next(0, 0); inc <= 0 {
		t.Errorf("n=0 clamps to 1: increment %v", inc)
	}
}

// Property: every policy terminates with a bound covering the maximum,
// messages at least one per participant, and monotone non-increasing
// per-round participation.
func TestProgressivePoliciesProperty(t *testing.T) {
	policies := []IncrementPolicy{
		NewSecureIncrement(1, 1000),
		LinearIncrement{Step: 0.2},
		ExpIncrement{Init: 0.25},
	}
	if dp, err := NewDPIncrement(defaultModel(), 30); err == nil {
		policies = append(policies, dp)
	} else {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	for _, pol := range policies {
		t.Run(pol.Name(), func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				n := 1 + rng.Intn(30)
				offsets := make([]float64, n)
				maxOff := math.Inf(-1)
				for i := range offsets {
					offsets[i] = rng.Float64()*2 - 0.5 // may exceed the scale estimate
					if offsets[i] > maxOff {
						maxOff = offsets[i]
					}
				}
				scale := 0.5 + rng.Float64()
				res, err := ProgressiveUpperBound(offsets, scale, pol, 1)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if res.Bound < maxOff {
					t.Fatalf("trial %d: bound %v < max offset %v", trial, res.Bound, maxOff)
				}
				if res.Messages < float64(n) {
					t.Fatalf("trial %d: messages %v < n=%d", trial, res.Messages, n)
				}
				if res.Rounds < 1 {
					t.Fatalf("trial %d: rounds %d", trial, res.Rounds)
				}
			}
		})
	}
}

func TestOptimalUpperBound(t *testing.T) {
	res, err := OptimalUpperBound([]float64{0.3, -0.2, 0.9, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != 0.9 {
		t.Errorf("Bound = %v, want 0.9", res.Bound)
	}
	if res.Messages != 8 { // 4 users × Cb=2
		t.Errorf("Messages = %v, want 8", res.Messages)
	}
	for i, e := range res.Exposure {
		if e != 0 {
			t.Errorf("Exposure[%d] = %v, want 0 (full exposure)", i, e)
		}
	}
	if _, err := OptimalUpperBound(nil, 1); err == nil {
		t.Error("no participants should error")
	}
}

func TestLinearTighterButCostlierThanExponential(t *testing.T) {
	// Section VI-D's headline trade-off on a fixed workload.
	rng := rand.New(rand.NewSource(99))
	var linMsg, expMsg, linBound, expBound float64
	for trial := 0; trial < 100; trial++ {
		n := 10
		offsets := make([]float64, n)
		for i := range offsets {
			offsets[i] = rng.Float64()
		}
		lin, err := ProgressiveUpperBound(offsets, 1, LinearIncrement{Step: 0.05}, 1)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := ProgressiveUpperBound(offsets, 1, ExpIncrement{Init: 0.25}, 1)
		if err != nil {
			t.Fatal(err)
		}
		linMsg += lin.Messages
		expMsg += exp.Messages
		linBound += lin.Bound
		expBound += exp.Bound
	}
	if linMsg <= expMsg {
		t.Errorf("linear should cost more verification: %v vs %v", linMsg, expMsg)
	}
	if linBound >= expBound {
		t.Errorf("linear should produce tighter bounds: %v vs %v", linBound, expBound)
	}
}

func TestBoundRectContainsAllMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geo.Point, 40)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	members := []int32{3, 7, 11, 19, 23, 31}
	anchor := pts[members[0]]
	for _, pol := range []IncrementPolicy{
		NewSecureIncrement(1, 1000),
		LinearIncrement{Step: 0.1},
		ExpIncrement{Init: 0.2},
	} {
		res, err := BoundRect(pts, members, anchor, DefaultRectScale(len(members), len(pts)), pol, 1)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		for _, m := range members {
			if !res.Rect.Contains(pts[m]) {
				t.Errorf("%s: member %d at %v outside cloaked rect %v", pol.Name(), m, pts[m], res.Rect)
			}
		}
		if res.Messages < float64(4*len(members)) {
			t.Errorf("%s: messages %v below the 4-direction floor", pol.Name(), res.Messages)
		}
		opt, err := OptimalRect(pts, members, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rect.ContainsRect(opt.Rect) {
			t.Errorf("%s: progressive rect %v does not contain the optimal rect %v",
				pol.Name(), res.Rect, opt.Rect)
		}
	}
}

// zeroIncrement is a broken policy: it never grows the bound.
type zeroIncrement struct{}

func (zeroIncrement) Next(int, float64) float64 { return 0 }
func (zeroIncrement) Name() string              { return "zero" }

// TestBoundRectVotes pins the one four-direction loop: it asks
// for votes in +x, −x, +y, −y order, reports one span per direction
// under "core.bound", equals BoundRect when the votes are the members'
// offsets, and names the direction a policy failure happened in.
func TestBoundRectVotes(t *testing.T) {
	anchor := geo.Point{X: 0.5, Y: 0.5}
	p := geo.Point{X: 0.625, Y: 0.25}
	for d, want := range []float64{0.125, -0.125, -0.25, 0.25} {
		if got := Direction(d).Offset(p, anchor); got != want {
			t.Errorf("direction %d: offset %v, want %v", d, got, want)
		}
	}

	rng := rand.New(rand.NewSource(11))
	pts := make([]geo.Point, 50)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	members := []int32{2, 9, 14, 27, 33, 41, 48}
	anchor = pts[members[0]]
	scale := DefaultRectScale(len(members), len(pts))
	pol := LinearIncrement{Step: 0.1}

	root := trace.New("test")
	var asked []Direction
	got, err := BoundRectVotes(trace.NewContext(context.Background(), root), len(members), anchor, scale, pol, 1,
		func(d Direction) AgreeFunc {
			asked = append(asked, d)
			return func(i int, bound float64) bool { return d.Offset(pts[members[i]], anchor) <= bound }
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Direction{DirXPlus, DirXMinus, DirYPlus, DirYMinus}; !reflect.DeepEqual(asked, want) {
		t.Errorf("votes asked in order %v, want %v", asked, want)
	}
	want, err := BoundRect(pts, members, anchor, scale, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BoundRectVotes = %+v, BoundRect = %+v", got, want)
	}
	if want.MeanExposure <= 0 {
		t.Errorf("mean exposure %v, want a positive interval length", want.MeanExposure)
	}
	var spans []string
	root.Walk(func(sp *trace.Span, depth int) {
		if depth > 0 {
			spans = append(spans, sp.Name())
		}
	})
	if want := []string{"core.bound", "bound.+x", "bound.-x", "bound.+y", "bound.-y"}; !reflect.DeepEqual(spans, want) {
		t.Errorf("spans %v, want %v", spans, want)
	}

	_, err = BoundRectVotes(context.Background(), len(members), anchor, scale, zeroIncrement{}, 1,
		func(Direction) AgreeFunc { return func(int, float64) bool { return false } })
	if err == nil || !strings.HasPrefix(err.Error(), "core: direction 0: ") {
		t.Errorf("broken policy error = %v, want it to name direction 0", err)
	}
}

func TestOptimalRectIsExact(t *testing.T) {
	pts := []geo.Point{{X: 0.1, Y: 0.9}, {X: 0.4, Y: 0.2}, {X: 0.3, Y: 0.5}}
	res, err := OptimalRect(pts, []int32{0, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := geo.RectFrom(pts...)
	if res.Rect != want {
		t.Errorf("OptimalRect = %v, want %v", res.Rect, want)
	}
	if res.Messages != 3 {
		t.Errorf("Messages = %v, want 3", res.Messages)
	}
	if _, err := OptimalRect(pts, nil, 1); err == nil {
		t.Error("empty members should error")
	}
}

func TestDefaultRectScale(t *testing.T) {
	if s := DefaultRectScale(100, 10000); math.Abs(s-0.05) > 1e-12 {
		t.Errorf("scale = %v, want 0.05", s) // sqrt(0.01)/2
	}
	if s := DefaultRectScale(0, 100); s != 1 {
		t.Errorf("degenerate scale = %v, want 1", s)
	}
	if s := DefaultRectScale(10, 0); s != 1 {
		t.Errorf("degenerate scale = %v, want 1", s)
	}
}

func TestMeanExposureSmallerForLinear(t *testing.T) {
	// The Section VII privacy-loss observation: tighter increments expose
	// more (smaller agree intervals).
	rng := rand.New(rand.NewSource(123))
	pts := make([]geo.Point, 60)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	members := make([]int32, 20)
	for i := range members {
		members[i] = int32(i * 3)
	}
	scale := DefaultRectScale(len(members), len(pts))
	lin, err := BoundRect(pts, members, pts[members[0]], scale, LinearIncrement{Step: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := BoundRect(pts, members, pts[members[0]], scale, ExpIncrement{Init: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lin.MeanExposure == 0 || exp.MeanExposure == 0 {
		t.Skip("no finite exposures sampled")
	}
	if lin.MeanExposure >= exp.MeanExposure {
		t.Errorf("linear exposure interval %v should be smaller (more privacy lost) than exponential %v",
			lin.MeanExposure, exp.MeanExposure)
	}
}
