package core

import (
	"context"
	"fmt"
	"math"

	"nonexposure/internal/geo"
	"nonexposure/internal/trace"
)

// This file implements the progressive secure-bounding protocols of
// Algorithms 3–4 and the baselines of Section VI-D (optimal, linear,
// exponential), plus the future-work privacy-loss accounting of
// Section VII.
//
// A protocol bounds one scalar direction: each participant holds a private
// offset (its coordinate relative to the protocol anchor) and only ever
// answers "does my value stay below X?". Four scalar runs bound a cluster
// rectangle. Increments work in units of the per-run extent estimate U, so
// the paper's normalized cost-model constants apply at any coordinate
// scale.

// IncrementPolicy chooses the next bound increase. All inputs and the
// returned increment are in normalized units (1 = the extent estimate U).
type IncrementPolicy interface {
	// Next returns the normalized increment given n currently disagreeing
	// users and the current normalized bound.
	Next(n int, current float64) float64
	// Name identifies the policy in reports.
	Name() string
}

// SecureIncrement is the paper's optimal progressive policy: each round
// grows the bound by the N-bounding increment of Equation 5 under the
// configured cost model.
type SecureIncrement struct {
	Model CostModel
}

// NewSecureIncrement returns the policy for the paper's default
// experimental model: uniform overshoot, area-proportional request cost,
// normalized domain.
func NewSecureIncrement(cb, cr float64) SecureIncrement {
	return SecureIncrement{Model: CostModel{
		Cb:   cb,
		Dist: UniformDist{U: 1},
		Req:  AreaCost{Cr: cr},
	}}
}

// NewSecureIncrementForCluster calibrates the request-cost constant to
// the cluster being bounded: a bound spanning the full extent estimate
// returns roughly one POI per cluster member (the experiments place one
// POI at every user), so R(1) ≈ Cr·clusterSize rather than Cr. This is
// the policy the experiment harness and the public API use.
func NewSecureIncrementForCluster(cb, cr float64, clusterSize int) SecureIncrement {
	if clusterSize < 1 {
		clusterSize = 1
	}
	return NewSecureIncrement(cb, cr*float64(clusterSize))
}

// Next implements IncrementPolicy.
func (s SecureIncrement) Next(n int, current float64) float64 {
	inc, err := s.Model.NBoundingIncrement(n)
	if err != nil || inc <= 0 {
		// The model cannot fail for n >= 1 with a sane configuration; keep
		// the protocol alive regardless.
		return 1
	}
	return inc
}

// Name implements IncrementPolicy.
func (s SecureIncrement) Name() string { return "secure" }

// DPIncrement uses the exact dynamic program over Equation 3 instead of
// the closed-form approximation; the increments are precomputed up to
// MaxN and clamped there beyond.
type DPIncrement struct {
	incs []float64
}

// NewDPIncrement precomputes exact increments for up to maxN disagreeing
// users under the given model.
func NewDPIncrement(model CostModel, maxN int) (DPIncrement, error) {
	incs, _, err := model.ExactNBounding(maxN)
	if err != nil {
		return DPIncrement{}, fmt.Errorf("core: DP increments: %w", err)
	}
	return DPIncrement{incs: incs}, nil
}

// Next implements IncrementPolicy.
func (d DPIncrement) Next(n int, current float64) float64 {
	if n >= len(d.incs) {
		n = len(d.incs) - 1
	}
	if n < 1 {
		n = 1
	}
	return d.incs[n]
}

// Name implements IncrementPolicy.
func (d DPIncrement) Name() string { return "secure-dp" }

// LinearIncrement grows the bound by a fixed fraction of the extent
// estimate each round — the conservative baseline: many rounds, tight
// bound.
type LinearIncrement struct {
	// Step is the normalized fixed increment (Section VI-D's "fixed
	// amount").
	Step float64
}

// Next implements IncrementPolicy.
func (l LinearIncrement) Next(n int, current float64) float64 { return l.Step }

// Name implements IncrementPolicy.
func (l LinearIncrement) Name() string { return "linear" }

// ExpIncrement doubles the bound each round — the aggressive baseline: few
// rounds, loose bound. The first round uses Init.
type ExpIncrement struct {
	// Init is the normalized first increment.
	Init float64
}

// Next implements IncrementPolicy.
func (e ExpIncrement) Next(n int, current float64) float64 {
	if current <= 0 {
		return e.Init
	}
	return current // new bound = 2 × current bound
}

// Name implements IncrementPolicy.
func (e ExpIncrement) Name() string { return "exponential" }

// ScalarBoundResult reports one scalar protocol run.
type ScalarBoundResult struct {
	// Bound is the final upper bound on all offsets (absolute units).
	Bound float64
	// Rounds is the number of hypothesis–verification iterations.
	Rounds int
	// Messages is the verification communication cost: Cb per queried
	// user per round.
	Messages float64
	// Exposure is, per user, the length of the interval the protocol
	// narrowed that user's value into (the Section VII privacy-loss
	// metric). Smaller means more privacy lost. Indexed like offsets.
	Exposure []float64
}

// AgreeFunc answers one verification probe: does participant i's private
// value stay at or below bound? In a deployment this is a network round
// trip to the participant (internal/p2p provides that); in-process callers
// (BoundRectCtx, ProgressiveUpperBound) compare the participant's offset.
type AgreeFunc func(i int, bound float64) bool

// ProgressiveUpperBoundVotes runs Algorithm 4 for one direction over n
// participants whose values are reachable only through agree. scale is the
// extent estimate U that normalizes the policy's increments; it must be
// positive. cb is the per-verification message cost.
//
// The protocol never sees a participant's value — only votes — which is
// the paper's non-exposure guarantee. Exposure intervals are derived
// purely from which round each participant first agreed in.
func ProgressiveUpperBoundVotes(n int, scale float64, pol IncrementPolicy, cb float64, agree AgreeFunc) (ScalarBoundResult, error) {
	if scale <= 0 {
		return ScalarBoundResult{}, fmt.Errorf("core: bounding scale must be positive, got %v", scale)
	}
	if n <= 0 {
		return ScalarBoundResult{}, fmt.Errorf("core: bounding needs at least one participant")
	}
	res := ScalarBoundResult{Exposure: make([]float64, n)}
	disagree := make([]int, 0, n)
	for i := 0; i < n; i++ {
		disagree = append(disagree, i)
	}
	x := 0.0             // current normalized bound
	prev := math.Inf(-1) // lower edge of the exposure interval, absolute units
	const maxRounds = 1 << 20
	for len(disagree) > 0 {
		inc := pol.Next(len(disagree), x)
		if inc <= 0 || math.IsNaN(inc) {
			return res, fmt.Errorf("core: policy %s produced increment %v", pol.Name(), inc)
		}
		x += inc
		res.Rounds++
		if res.Rounds > maxRounds {
			return res, fmt.Errorf("core: policy %s did not terminate", pol.Name())
		}
		bound := x * scale
		res.Messages += float64(len(disagree)) * cb
		still := disagree[:0]
		for _, i := range disagree {
			if agree(i, bound) {
				// The participant agrees: everyone now knows its value
				// lies in (prev, bound].
				if math.IsInf(prev, -1) {
					// First round: the value is only known to be <= bound.
					res.Exposure[i] = math.Inf(1)
				} else {
					res.Exposure[i] = bound - prev
				}
			} else {
				still = append(still, i)
			}
		}
		disagree = still
		prev = bound
		res.Bound = bound
	}
	return res, nil
}

// ProgressiveUpperBound is the in-process convenience form of
// ProgressiveUpperBoundVotes: offsets are the participants' private values
// relative to the anchor (may be negative — such users agree with the very
// first bound). The final bound is guaranteed to be >= every offset.
func ProgressiveUpperBound(offsets []float64, scale float64, pol IncrementPolicy, cb float64) (ScalarBoundResult, error) {
	return ProgressiveUpperBoundVotes(len(offsets), scale, pol, cb, func(i int, bound float64) bool {
		return offsets[i] <= bound
	})
}

// OptimalUpperBound is the OPT baseline: every participant reveals its
// offset (one message each) and the bound is the exact maximum. It is the
// tightest possible bound but forfeits non-exposure; the experiments use
// it as the benchmark.
func OptimalUpperBound(offsets []float64, cb float64) (ScalarBoundResult, error) {
	if len(offsets) == 0 {
		return ScalarBoundResult{}, fmt.Errorf("core: bounding needs at least one participant")
	}
	res := ScalarBoundResult{
		Rounds:   1,
		Messages: float64(len(offsets)) * cb,
		Exposure: make([]float64, len(offsets)), // zero-width: full exposure
		Bound:    offsets[0],
	}
	for _, v := range offsets[1:] {
		if v > res.Bound {
			res.Bound = v
		}
	}
	return res, nil
}

// RectBoundResult aggregates the four scalar runs that bound a cluster's
// rectangle.
type RectBoundResult struct {
	// Rect is the cloaked region; it contains every member location that
	// participated in all four directions (see Degraded).
	Rect geo.Rect
	// Rounds is the total iteration count across the four directions.
	Rounds int
	// Messages is the total bounding communication cost.
	Messages float64
	// MeanExposure is the average finite exposure-interval length across
	// users and directions (+Inf entries — users bounded in round one —
	// are excluded). Zero means coordinates fully exposed (OPT).
	MeanExposure float64
	// Degraded lists member ids whose probes went unanswered in at least
	// one direction: the protocol assumed agreement to terminate, so the
	// rectangle is NOT guaranteed to contain them. Empty (nil) for local,
	// fault-free runs; populated by transports that can lose peers
	// (internal/p2p), sorted ascending.
	Degraded []int32
}

// Direction is one of the four scalar bounding runs of a cluster
// rectangle, numbered in the order BoundRectVotes runs them.
type Direction uint8

// The four bounding directions.
const (
	DirXPlus Direction = iota
	DirXMinus
	DirYPlus
	DirYMinus
)

// dirSpans names each direction's trace span.
var dirSpans = [4]string{"bound.+x", "bound.-x", "bound.+y", "bound.-y"}

// Offset is p's private value in direction d: how far p lies beyond
// anchor along d. A participant agrees with bound X iff Offset <= X.
func (d Direction) Offset(p, anchor geo.Point) float64 {
	switch d {
	case DirXPlus:
		return p.X - anchor.X
	case DirXMinus:
		return anchor.X - p.X
	case DirYPlus:
		return p.Y - anchor.Y
	default:
		return anchor.Y - p.Y
	}
}

// BoundRectVotes bounds a cluster's rectangle without exposure: one
// ProgressiveUpperBoundVotes run per direction (+x, −x, +y, −y, in that
// order) over n participants, whose direction-d votes vote(d) supplies,
// assembled around anchor. It is the one four-direction loop: local
// offsets, network probes and a recording observer differ only in how
// they vote. When ctx carries a trace span, the whole bounding reports
// as a "core.bound" stage with one child per direction run; with
// tracing off the hooks are nil checks.
func BoundRectVotes(ctx context.Context, n int, anchor geo.Point, scale float64, pol IncrementPolicy, cb float64, vote func(Direction) AgreeFunc) (RectBoundResult, error) {
	bsp := trace.FromContext(ctx).Child("core.bound")
	defer bsp.End()
	var bounds [4]float64
	var res RectBoundResult
	expSum, expN := 0.0, 0
	for d := DirXPlus; d <= DirYMinus; d++ {
		dsp := bsp.Child(dirSpans[d])
		r, err := ProgressiveUpperBoundVotes(n, scale, pol, cb, vote(d))
		dsp.End()
		if err != nil {
			return RectBoundResult{}, fmt.Errorf("core: direction %d: %w", d, err)
		}
		bounds[d] = r.Bound
		res.Rounds += r.Rounds
		res.Messages += r.Messages
		for _, e := range r.Exposure {
			if !math.IsInf(e, 1) {
				expSum += e
				expN++
			}
		}
	}
	if expN > 0 {
		res.MeanExposure = expSum / float64(expN)
	}
	res.Rect = geo.Rect{
		Min: geo.Point{X: anchor.X - bounds[DirXMinus], Y: anchor.Y - bounds[DirYMinus]},
		Max: geo.Point{X: anchor.X + bounds[DirXPlus], Y: anchor.Y + bounds[DirYPlus]},
	}
	return res, nil
}

// BoundRect obtains the cloaked rectangle of the member locations without
// exposure, anchored at the host's own location: BoundRectVotes with
// every member voting its own offset. scale is the per-direction extent
// estimate U. The paper's experiments set U from the cluster size under
// the uniform assumption; see DefaultRectScale.
func BoundRect(points []geo.Point, members []int32, anchor geo.Point, scale float64, pol IncrementPolicy, cb float64) (RectBoundResult, error) {
	return BoundRectCtx(context.Background(), points, members, anchor, scale, pol, cb)
}

// BoundRectCtx is BoundRect with span hooks (see BoundRectVotes).
func BoundRectCtx(ctx context.Context, points []geo.Point, members []int32, anchor geo.Point, scale float64, pol IncrementPolicy, cb float64) (RectBoundResult, error) {
	return BoundRectVotes(ctx, len(members), anchor, scale, pol, cb, func(d Direction) AgreeFunc {
		return func(i int, bound float64) bool { return d.Offset(points[members[i]], anchor) <= bound }
	})
}

// OptimalRect is the OPT counterpart of BoundRect: the exact bounding box,
// at the price of exposing all coordinates.
func OptimalRect(points []geo.Point, members []int32, cb float64) (RectBoundResult, error) {
	if len(members) == 0 {
		return RectBoundResult{}, fmt.Errorf("core: bounding needs at least one member")
	}
	r := geo.EmptyRect()
	for _, m := range members {
		r = r.ExpandToInclude(points[m])
	}
	return RectBoundResult{
		Rect:     r,
		Rounds:   1,
		Messages: float64(len(members)) * cb,
	}, nil
}

// DefaultRectScale is the paper's extent estimate for a cluster of n users
// out of total users uniformly spread over the unit square: the side
// length of the square expected to hold n of them. Each direction from the
// anchor is estimated as half that side.
func DefaultRectScale(n, total int) float64 {
	if n < 1 || total < 1 {
		return 1
	}
	return math.Sqrt(float64(n)/float64(total)) / 2
}
