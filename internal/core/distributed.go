package core

import (
	"errors"
	"fmt"

	"nonexposure/internal/graph"
	"nonexposure/internal/wpg"
)

// ErrInsufficientUsers is returned when a host's unclustered connected
// component has fewer than k users, so no valid k-anonymity cluster
// exists for it.
var ErrInsufficientUsers = errors.New("core: not enough reachable unclustered users for k-anonymity")

// DistStats reports what a distributed clustering run did and what it
// cost.
type DistStats struct {
	// Involved is the number of distinct users (excluding the host) whose
	// adjacency the host fetched: the communication cost in messages.
	Involved int
	// SpanSize is |C|, the size of the smallest valid t-connectivity
	// cluster the run discovered (before the step-3 refinement).
	SpanSize int
	// T is the final connectivity of the spanned set.
	T int32
	// Cached reports that the host already had a cluster, so no
	// communication happened at all.
	Cached bool
	// BorderChecks is the number of external border vertices verified in
	// step 2; Absorbed is how many of them failed the check and were
	// pulled into C.
	BorderChecks int
	Absorbed     int
	// NewClusters is how many clusters the run registered (the step-3
	// partition of C).
	NewClusters int
	// Span is the spanned vertex set C itself (diagnostics; nil for
	// cached results).
	Span []int32
}

// DistributedTConn is Algorithm 2: the distributed, cluster-isolated
// t-connectivity k-clustering for one host user.
//
// The host only learns the graph through src — one adjacency message per
// involved user, which is exactly the paper's communication accounting.
// Already-clustered users (per reg) are treated as removed from the WPG;
// thanks to cluster-isolation this cannot degrade the result.
//
// Step 1 spans a minimum-connectivity set around the host until it has
// exactly k members (Algorithm 2 lines 1–6). Step 2 verifies every
// external border vertex can still form a valid t-connectivity cluster in
// the remaining graph, absorbing the ones that cannot and raising t as
// needed — the Theorem 4.4 sufficient condition for cluster-isolation.
// Step 3 partitions the spanned set with the centralized algorithm and
// registers every resulting cluster, returning the host's.
func DistributedTConn(src AdjacencySource, host int32, k int, reg *Registry) (*Cluster, DistStats, error) {
	if k < 1 {
		return nil, DistStats{}, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if c, ok := reg.ClusterOf(host); ok {
		return c, DistStats{Cached: true}, nil
	}

	rec := NewRecorder(src, host)
	run := &distRun{
		rec:  rec,
		reg:  reg,
		k:    k,
		host: host,
		inC:  map[int32]bool{host: true},
		C:    []int32{host},
	}

	if err := run.span(); err != nil {
		return nil, run.stats(), err
	}
	run.checkBorders()
	cluster, err := run.refineAndRegister()
	if err != nil {
		return nil, run.stats(), err
	}
	return cluster, run.stats(), nil
}

type distRun struct {
	rec  *Recorder
	reg  *Registry
	k    int
	host int32

	inC map[int32]bool
	C   []int32
	t   int32

	borderChecks int
	absorbed     int
	newClusters  int
}

func (r *distRun) stats() DistStats {
	return DistStats{
		Involved:     r.rec.Involved(),
		SpanSize:     len(r.C),
		T:            r.t,
		BorderChecks: r.borderChecks,
		Absorbed:     r.absorbed,
		NewClusters:  r.newClusters,
		Span:         append([]int32(nil), r.C...),
	}
}

// usable reports whether v can participate in the host's cluster: it must
// not already belong to another cluster (clustered users are removed from
// the remaining WPG).
func (r *distRun) usable(v int32) bool {
	return !r.reg.Assigned(v)
}

type frontierItem struct {
	w  int32
	to int32
}

func frontierLess(a, b frontierItem) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.to < b.to
}

// span is step 1 (Algorithm 2, lines 1–6): Prim-style growth by minimum
// edge weight from the host until |C| = k. The connectivity t is the
// largest edge weight the span used.
func (r *distRun) span() error {
	h := graph.NewHeap(frontierLess)
	pushNeighbors := func(v int32) {
		for _, e := range r.rec.Adjacency(v) {
			if !r.inC[e.To] && r.usable(e.To) {
				h.Push(frontierItem{w: e.W, to: e.To})
			}
		}
	}
	pushNeighbors(r.host)
	for len(r.C) < r.k {
		var next frontierItem
		for {
			if h.Len() == 0 {
				return fmt.Errorf("%w: host %d reached only %d of %d users",
					ErrInsufficientUsers, r.host, len(r.C), r.k)
			}
			next = h.Pop()
			if !r.inC[next.to] {
				break
			}
		}
		r.add(next.to)
		if next.w > r.t {
			r.t = next.w
		}
		pushNeighbors(next.to)
	}
	return nil
}

// add puts v into C.
func (r *distRun) add(v int32) {
	r.inC[v] = true
	r.C = append(r.C, v)
}

// checkBorders is step 2. Border vertices that pass a check never need
// re-checking: t only grows, and a valid t-cluster stays valid at higher t.
func (r *distRun) checkBorders() {
	checked := make(map[int32]bool)
	queued := make(map[int32]bool)
	var queue []int32
	enqueueBordersOf := func(v int32) {
		for _, e := range r.rec.Adjacency(v) {
			u := e.To
			if !r.inC[u] && !checked[u] && !queued[u] && r.usable(u) {
				queued[u] = true
				queue = append(queue, u)
			}
		}
	}
	for _, v := range r.C {
		enqueueBordersOf(v)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		queued[v] = false
		if r.inC[v] || checked[v] {
			continue
		}
		r.borderChecks++
		if class, ok := r.hasValidTCluster(v); ok {
			// Everyone in v's t-class shares the same valid cluster, so
			// every border vertex in it passes the same check — marking
			// them saves one BFS (and its messages) apiece.
			for _, u := range class {
				checked[u] = true
			}
			continue
		}
		// Absorb v (lines 12–13): the connectivity rises to the cheapest
		// edge between v and C when v attached above the old t. Per the
		// paper's Fig. 7 narrative, only v itself joins C — its neighbors
		// become new external border vertices and are verified in turn
		// (absorbed one by one if they too are stranded).
		r.absorbed++
		minW := int32(-1)
		for _, e := range r.rec.Adjacency(v) {
			if r.inC[e.To] && (minW < 0 || e.W < minW) {
				minW = e.W
			}
		}
		if minW > r.t {
			r.t = minW
		}
		r.add(v)
		enqueueBordersOf(v)
	}
}

// hasValidTCluster reports whether v can reach at least k users (itself
// included) in the remaining WPG minus C using only edges of weight <= t.
// On success it returns the visited members of v's t-class (at least k of
// them) so the caller can mark classmates as verified.
func (r *distRun) hasValidTCluster(v int32) ([]int32, bool) {
	visited := []int32{v}
	if r.k == 1 {
		return visited, true
	}
	inVisit := map[int32]bool{v: true}
	for head := 0; head < len(visited); head++ {
		u := visited[head]
		for _, e := range r.rec.Adjacency(u) {
			if e.W > r.t || inVisit[e.To] || r.inC[e.To] || !r.usable(e.To) {
				continue
			}
			inVisit[e.To] = true
			visited = append(visited, e.To)
			if len(visited) >= r.k {
				return visited, true
			}
		}
	}
	return nil, false
}

// refineAndRegister is step 3: run the centralized algorithm on the
// subgraph induced by C, its vertices numbered in discovery order and
// its rows read through the Recorder once each, register every
// resulting cluster, and return the host's.
func (r *distRun) refineAndRegister() (*Cluster, error) {
	rows := make([][]wpg.Edge, len(r.C))
	for i, v := range r.C {
		rows[i] = r.rec.Adjacency(v)
	}
	clusters, undersized := tconnInduced(r.C, func(i int32) []wpg.Edge { return rows[i] }, r.k, nil)
	if len(undersized) > 0 {
		// C is a connected component of size >= k in the induced graph, so
		// the cut can never produce undersized pieces.
		return nil, fmt.Errorf("core: internal error: undersized pieces from valid span of %d", len(r.C))
	}
	registered, err := r.reg.AddBatch(clusters)
	if err != nil {
		return nil, fmt.Errorf("core: register distributed clusters: %w", err)
	}
	r.newClusters = len(registered)
	for _, c := range registered {
		if c.Contains(r.host) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("core: internal error: host %d missing from its own partition", r.host)
}
