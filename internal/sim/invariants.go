package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"nonexposure/internal/core"
	"nonexposure/internal/wpg"
)

// An Invariant is one safety property every scenario execution must
// satisfy, degraded or not. Checks receive the full report so they can
// reason about transcripts and wire accounting, not just results.
type Invariant struct {
	Name  string
	Check func(*Report) error
}

// Invariants returns the registry of safety properties the harness
// checks after every run:
//
//   - k-anonymity: every registered cluster has >= k members and every
//     successful request's cluster contains its host.
//   - reciprocity: the cluster registry stays a valid partition.
//   - cluster-isolation: every fresh, non-degraded clustering run's span
//     satisfies the Theorem 4.4 condition on the remaining graph.
//   - containment: the final rectangle contains every member that kept
//     answering probes (degraded members are exempt — and tracked).
//   - monotone-bounds: within each direction of each bounding run, the
//     probed bound never decreases.
//   - accounting: sent == delivered + lost on the wire.
//   - lossless-differential: a fault-free scenario is bit-identical to
//     the local in-process reference (distributed clustering refined via
//     core.CentralizedTConn, plus core.BoundRect local bounding).
func Invariants() []Invariant {
	return []Invariant{
		{"k-anonymity", checkKAnonymity},
		{"reciprocity", checkReciprocity},
		{"cluster-isolation", checkIsolation},
		{"containment", checkContainment},
		{"monotone-bounds", checkMonotoneBounds},
		{"accounting", checkAccounting},
		{"lossless-differential", checkLosslessDifferential},
	}
}

// Violations runs every invariant and returns one message per failure
// (empty when the execution was safe).
func (r *Report) Violations() []string {
	var out []string
	for _, inv := range Invariants() {
		if err := inv.Check(r); err != nil {
			out = append(out, inv.Name+": "+err.Error())
		}
	}
	return out
}

func checkKAnonymity(r *Report) error {
	k := r.Scenario.K
	for _, c := range r.Registry.Clusters() {
		if c.Size() < k {
			return fmt.Errorf("registered cluster %d has %d members, k=%d", c.ID, c.Size(), k)
		}
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Cluster == nil {
			continue
		}
		if !run.Cluster.Contains(run.Host) {
			return fmt.Errorf("run %d: host %d missing from its cluster %v", i, run.Host, run.Cluster.Members)
		}
		if run.Cluster.Size() < k {
			return fmt.Errorf("run %d: host %d got cluster of %d < k=%d", i, run.Host, run.Cluster.Size(), k)
		}
	}
	return nil
}

func checkReciprocity(r *Report) error {
	return r.Registry.CheckReciprocity()
}

// checkIsolation verifies Theorem 4.4's sufficient condition for every
// fresh clustering run that saw no transport degradation: each external
// border vertex of the spanned set must still be able to form a valid
// t-connectivity cluster in the remaining graph (users already clustered
// before the run are removed, exactly as DistributedTConn treats them).
func checkIsolation(r *Report) error {
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Cluster == nil || run.ClusterErr != nil || run.Stats.Cached {
			continue
		}
		if !isolationHolds(r.Graph, run.Stats.Span, run.Stats.T, r.Scenario.K, run.AssignedBefore) {
			return fmt.Errorf("run %d: span of host %d (t=%d) violates the isolation condition",
				i, run.Host, run.Stats.T)
		}
	}
	return nil
}

// isolationHolds is core.SatisfiesIsolationCondition extended with an
// excluded set: vertices clustered before the run are no longer part of
// the remaining WPG.
func isolationHolds(g *wpg.Graph, span []int32, t int32, k int, excluded map[int32]bool) bool {
	inC := make(map[int32]bool, len(span))
	for _, v := range span {
		inC[v] = true
	}
	border := make(map[int32]bool)
	for _, v := range span {
		for _, e := range g.Neighbors(v) {
			if !inC[e.To] && !excluded[e.To] {
				border[e.To] = true
			}
		}
	}
	for v := range border {
		if !canFormTCluster(g, v, t, k, inC, excluded) {
			return false
		}
	}
	return true
}

func canFormTCluster(g *wpg.Graph, v int32, t int32, k int, inC, excluded map[int32]bool) bool {
	if k <= 1 {
		return true
	}
	visited := map[int32]bool{v: true}
	queue := []int32{v}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(u) {
			if e.W > t || visited[e.To] || inC[e.To] || excluded[e.To] {
				continue
			}
			visited[e.To] = true
			count++
			if count >= k {
				return true
			}
			queue = append(queue, e.To)
		}
	}
	return false
}

// checkContainment asserts the final rectangle contains the host and
// every member whose probes were all answered. Members in Bound.Degraded
// are exempt: the protocol assumed their agreement to terminate, which is
// exactly the degradation the result must disclose.
func checkContainment(r *Report) error {
	for i := range r.Runs {
		run := &r.Runs[i]
		if !run.HasRect {
			continue
		}
		degraded := make(map[int32]bool, len(run.Bound.Degraded))
		for _, m := range run.Bound.Degraded {
			degraded[m] = true
		}
		if degraded[run.Host] {
			return fmt.Errorf("run %d: host %d marked degraded in its own bounding", i, run.Host)
		}
		if !run.Bound.Rect.Contains(r.Locs[run.Host]) {
			return fmt.Errorf("run %d: rect %v misses host %d at %v", i, run.Bound.Rect, run.Host, r.Locs[run.Host])
		}
		for _, m := range run.Cluster.Members {
			if degraded[m] {
				continue
			}
			if !run.Bound.Rect.Contains(r.Locs[m]) {
				return fmt.Errorf("run %d: rect %v misses answering member %d at %v",
					i, run.Bound.Rect, m, r.Locs[m])
			}
		}
	}
	return nil
}

// checkMonotoneBounds asserts that within every direction of every
// bounding run the sequence of probed bounds never decreases — the
// protocol only ever grows its hypothesis.
func checkMonotoneBounds(r *Report) error {
	for i := range r.Runs {
		run := &r.Runs[i]
		for dir, bounds := range run.ProbeBounds {
			for j := 1; j < len(bounds); j++ {
				if bounds[j] < bounds[j-1] || math.IsNaN(bounds[j]) {
					return fmt.Errorf("run %d dir %d: bound shrank %v -> %v at probe %d",
						i, dir, bounds[j-1], bounds[j], j)
				}
			}
		}
	}
	return nil
}

func checkAccounting(r *Report) error {
	if r.Sent != r.Delivered+r.Lost {
		return fmt.Errorf("sent=%d != delivered=%d + lost=%d", r.Sent, r.Delivered, r.Lost)
	}
	return nil
}

// checkLosslessDifferential replays a fault-free scenario against the
// local in-process reference implementation — core.DistributedTConn over
// a GraphSource (whose step-3 refinement is core.CentralizedTConn on the
// spanned subgraph) followed by core.BoundRect local bounding — and
// demands bit-identical results: members, costs, mean exposure, and
// rectangle.
func checkLosslessDifferential(r *Report) error {
	sc := r.Scenario
	if sc.Kind != FaultNone {
		return nil
	}
	if r.Lost != 0 {
		return fmt.Errorf("lossless scenario lost %d transmissions", r.Lost)
	}
	if r.Sent != 2*r.RoundTrips {
		return fmt.Errorf("lossless wire: sent=%d, want 2*roundTrips=%d", r.Sent, 2*r.RoundTrips)
	}
	reg := core.NewRegistry(sc.NumUsers)
	for i, host := range sc.Hosts {
		run := &r.Runs[i]
		c, stats, err := core.DistributedTConn(core.GraphSource{G: r.Graph}, host, sc.K, reg)
		if (err != nil) != (run.ClusterErr != nil) {
			return fmt.Errorf("run %d: clustering error mismatch: net=%v local=%v", i, run.ClusterErr, err)
		}
		if err != nil {
			if !errors.Is(run.ClusterErr, core.ErrInsufficientUsers) {
				return fmt.Errorf("run %d: unexpected lossless clustering error %v", i, run.ClusterErr)
			}
			continue
		}
		if !reflect.DeepEqual(c.Members, run.Cluster.Members) {
			return fmt.Errorf("run %d: net cluster %v != local %v", i, run.Cluster.Members, c.Members)
		}
		if stats.Involved != run.Stats.Involved || stats.Cached != run.Stats.Cached {
			return fmt.Errorf("run %d: stats diverge: net {inv=%d cached=%v} local {inv=%d cached=%v}",
				i, run.Stats.Involved, run.Stats.Cached, stats.Involved, stats.Cached)
		}
		pol := core.NewSecureIncrementForCluster(cbCost, crCost, c.Size())
		scale := core.DefaultRectScale(c.Size(), sc.NumUsers)
		local, berr := core.BoundRect(r.Locs, c.Members, r.Locs[host], scale, pol, cbCost)
		if berr != nil || run.BoundErr != nil {
			return fmt.Errorf("run %d: lossless bounding errored: net=%v local=%v", i, run.BoundErr, berr)
		}
		if local.Rect != run.Bound.Rect {
			return fmt.Errorf("run %d: net rect %v != local rect %v", i, run.Bound.Rect, local.Rect)
		}
		if local.Rounds != run.Bound.Rounds || local.Messages != run.Bound.Messages ||
			local.MeanExposure != run.Bound.MeanExposure {
			return fmt.Errorf("run %d: bounding cost diverges: net {r=%d m=%v exp=%v} local {r=%d m=%v exp=%v}",
				i, run.Bound.Rounds, run.Bound.Messages, run.Bound.MeanExposure,
				local.Rounds, local.Messages, local.MeanExposure)
		}
		if len(run.Bound.Degraded) != 0 {
			return fmt.Errorf("run %d: lossless run reported degraded members %v", i, run.Bound.Degraded)
		}
	}
	return nil
}
