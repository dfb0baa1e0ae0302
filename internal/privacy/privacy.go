// Package privacy formalizes the Section VII privacy-loss analysis: what
// a semi-honest observer of the secure-bounding protocol learns about
// each participant.
//
// During progressive bounding, every agree/disagree vote is public to the
// protocol (the paper's semi-honest model: parties follow the protocol
// but remember everything). A participant that rejected bound X and
// accepted bound X' has revealed its directional offset lies in (X, X'].
// Intersecting the four directions yields a *knowledge rectangle* per
// member — the tightest region the observer can pin that member into.
// The smaller the rectangle, the more privacy was lost; the paper's
// future work asks for exactly this metric.
package privacy

import (
	"context"
	"fmt"
	"math"

	"nonexposure/internal/core"
	"nonexposure/internal/geo"
)

// DirectionLog is the public transcript of one scalar direction.
type DirectionLog struct {
	// Bounds holds the absolute bound proposed in each round.
	Bounds []float64
	// AgreeRound holds, per member, the 1-based round in which the member
	// first agreed (0 if it agreed in round 1 — no lower constraint from
	// earlier rejections... see Knowledge).
	AgreeRound []int
}

// Transcript is everything a protocol observer sees during the bounding
// of one cluster.
type Transcript struct {
	Anchor  geo.Point
	Members []int32
	// Logs is indexed by core.Direction.
	Logs [4]DirectionLog
}

// Record runs the four-direction bounding protocol of core.BoundRect,
// voting each member's offset, while recording the public transcript.
// It returns the transcript alongside the protocol result (which matches
// what core.BoundRect produces for the same inputs).
func Record(points []geo.Point, members []int32, anchor geo.Point, scale float64, pol core.IncrementPolicy, cb float64) (*Transcript, core.RectBoundResult, error) {
	tr := &Transcript{Anchor: anchor, Members: append([]int32(nil), members...)}
	res, err := core.BoundRectVotes(context.Background(), len(members), anchor, scale, pol, cb, func(d core.Direction) core.AgreeFunc {
		log := &tr.Logs[d]
		log.AgreeRound = make([]int, len(members))
		lastBound := math.NaN()
		return func(i int, bound float64) bool {
			if bound != lastBound {
				log.Bounds = append(log.Bounds, bound)
				lastBound = bound
			}
			ok := d.Offset(points[members[i]], anchor) <= bound
			if ok {
				log.AgreeRound[i] = len(log.Bounds)
			}
			return ok
		}
	})
	if err != nil {
		return nil, core.RectBoundResult{}, fmt.Errorf("privacy: %w", err)
	}
	return tr, res, nil
}

// interval returns the (lo, hi] offset interval direction dir pins member
// i into. lo is -Inf when the member agreed with the very first bound.
func (t *Transcript) interval(dir core.Direction, i int) (lo, hi float64) {
	log := t.Logs[dir]
	round := log.AgreeRound[i]
	if round < 1 || round > len(log.Bounds) {
		// Member never agreed (cannot happen in a completed protocol) —
		// treat as unconstrained above.
		return math.Inf(-1), math.Inf(1)
	}
	hi = log.Bounds[round-1]
	if round == 1 {
		return math.Inf(-1), hi
	}
	return log.Bounds[round-2], hi
}

// Knowledge returns the rectangle a semi-honest observer can confine
// member i to, clamped to the unit square (the observer knows the world
// is the unit square).
func (t *Transcript) Knowledge(i int) geo.Rect {
	if i < 0 || i >= len(t.Members) {
		return geo.EmptyRect()
	}
	xLoP, xHiP := t.interval(core.DirXPlus, i)  // anchor.X + (lo, hi]
	xLoM, xHiM := t.interval(core.DirXMinus, i) // anchor.X - [hi, lo)
	yLoP, yHiP := t.interval(core.DirYPlus, i)
	yLoM, yHiM := t.interval(core.DirYMinus, i)

	r := geo.Rect{
		Min: geo.Point{
			X: math.Max(t.Anchor.X+xLoP, t.Anchor.X-xHiM),
			Y: math.Max(t.Anchor.Y+yLoP, t.Anchor.Y-yHiM),
		},
		Max: geo.Point{
			X: math.Min(t.Anchor.X+xHiP, t.Anchor.X-xLoM),
			Y: math.Min(t.Anchor.Y+yHiP, t.Anchor.Y-yLoM),
		},
	}
	return r.Clamp()
}

// KnowledgeArea returns the area of member i's knowledge rectangle —
// the privacy-loss scalar (smaller = more exposed).
func (t *Transcript) KnowledgeArea(i int) float64 {
	return t.Knowledge(i).Area()
}

// MeanKnowledgeArea averages the knowledge area across the cluster.
func (t *Transcript) MeanKnowledgeArea() float64 {
	if len(t.Members) == 0 {
		return 0
	}
	sum := 0.0
	for i := range t.Members {
		sum += t.KnowledgeArea(i)
	}
	return sum / float64(len(t.Members))
}

// AnonymitySetSize counts how many of the given user positions fall
// inside member i's knowledge rectangle — the residual crowd the member
// still hides in after the protocol leaked its votes. Comparing this to k
// tells whether progressive bounding eroded the k-anonymity guarantee for
// an in-protocol observer.
func (t *Transcript) AnonymitySetSize(i int, all []geo.Point) int {
	r := t.Knowledge(i)
	n := 0
	for _, p := range all {
		if r.Contains(p) {
			n++
		}
	}
	return n
}
