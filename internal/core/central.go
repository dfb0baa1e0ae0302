package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"nonexposure/internal/graph"
	"nonexposure/internal/wpg"
)

// CentralizedTConn is Algorithm 1: it partitions the whole WPG into the
// smallest valid t-connectivity clusters for anonymity level k.
//
// Edges are removed in descending weight order (ties by (U,V), the
// reverse of the Kruskal insertion order). A removal that would first
// disconnect a component is accepted only when both resulting sides keep
// at least k vertices; otherwise the edge is kept and removal continues
// with the next-lighter edge. This "safe removal" realizes the paper's
// "the recursive partition continues until a further partition will lead
// to an invalid cluster" per edge rather than per component — a single
// pendant vertex hanging off a heavy edge must not freeze its entire
// component into one giant cluster.
//
// Only minimum-spanning-forest edges can ever be first-disconnectors (a
// non-tree edge always has its cycle intact when its turn comes), so the
// procedure runs on the MSF with k-bounded side checks: O(V·k) overall.
//
// Connected components with fewer than k vertices cannot satisfy
// k-anonymity; they are returned separately as undersized groups so the
// caller can reject requests from those users.
func CentralizedTConn(g *wpg.Graph, k int) (clusters []*Cluster, undersized [][]int32) {
	return CentralizedTConnProfiled(g, k, nil)
}

// CentralizedTConnProfiled is CentralizedTConn with per-vertex anonymity
// floors: ks[v] is vertex v's personal demand (see Profile.K), and a
// side or cluster is valid only when its size reaches the maximum
// effective floor max(k, ks[v]) over its vertices. ks == nil (or every
// entry <= k) degenerates to the uniform algorithm and is bit-identical
// to CentralizedTConn: the removal order, side checks, and emission
// order are unchanged — only the validity threshold each side must meet
// can grow. Side checks stay O(kmax)-bounded, so the whole pass is
// O(V·kmax) where kmax is the largest effective floor.
func CentralizedTConnProfiled(g *wpg.Graph, k int, ks []int32) (clusters []*Cluster, undersized [][]int32) {
	if k < 1 {
		panic(fmt.Sprintf("core: k must be >= 1, got %d", k))
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	if ks != nil && len(ks) != n {
		panic(fmt.Sprintf("core: ks length %d != %d vertices", len(ks), n))
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return tconnInduced(ids, g.Neighbors, k, ks)
}

// relabels holds the vertex-indexed relabel arrays tconnInduced reuses
// across calls; concurrent clustering workers each take their own.
var relabels = sync.Pool{New: func() any { return new([]int32) }}

// tconnInduced is the one implementation of Algorithm 1. It partitions
// the subgraph that the vertex list ids induces without building that
// subgraph: local vertex i is ids[i], and row(i) is ids[i]'s adjacency
// row in global ids, sorted by (W, To). Every (W, U, V) tie breaks as
// in a subgraph relabeled in list order, so an ascending list clusters
// exactly as the same vertices do inside the whole graph. Neighbours
// outside ids are ignored; an edge counts once, from the row of its
// endpoint that comes first in ids. ks holds per-vertex floors indexed
// by global id (nil = uniform k). Clusters come back numbered in
// emission order (ascending smallest local member) and, like the
// undersized groups, in global ids sorted ascending.
func tconnInduced(ids []int32, row func(i int32) []wpg.Edge, k int, ks []int32) (clusters []*Cluster, undersized [][]int32) {
	n := len(ids)
	if n == 0 {
		return nil, nil
	}
	kOf := func(v int32) int {
		if ks != nil && int(ks[ids[v]]) > k {
			return int(ks[ids[v]])
		}
		return k
	}
	kmax := k
	if ks != nil {
		for v := range int32(n) {
			kmax = max(kmax, kOf(v))
		}
	}

	// local[v] is v's index in ids. The array is pooled and never
	// cleared, so a lookup only counts when ids[local[v]] == v. The
	// edge list is sized from the row lengths: each member edge sits in
	// two of them.
	lp := relabels.Get().(*[]int32)
	top, total := int32(0), 0
	for i, v := range ids {
		top = max(top, v)
		total += len(row(int32(i)))
	}
	if len(*lp) <= int(top) {
		*lp = make([]int32, top+1)
	}
	local := *lp
	for i, v := range ids {
		local[v] = int32(i)
	}
	edges := make([]graph.Edge, 0, total/2)
	for i := range int32(n) {
		for _, e := range row(i) {
			if uint(e.To) >= uint(len(local)) {
				continue
			}
			if j := local[e.To]; j > i && int(j) < n && ids[j] == e.To {
				edges = append(edges, graph.Edge{U: i, V: j, W: e.W})
			}
		}
	}
	relabels.Put(lp)

	// Minimum spanning forest via Kruskal over ascending (W, U, V).
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if a.W != b.W {
			return cmp.Compare(a.W, b.W)
		}
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	uf := graph.NewUnionFind(n)
	tree := make([]graph.Edge, 0, n-1)
	for _, e := range edges {
		if _, merged := uf.Union(e.U, e.V); merged {
			tree = append(tree, e)
		}
	}

	// Mutable forest adjacency over tree edges.
	type ref struct {
		to  int32
		idx int32
	}
	adj := make([][]ref, n)
	for i, e := range tree {
		adj[e.U] = append(adj[e.U], ref{to: e.V, idx: int32(i)})
		adj[e.V] = append(adj[e.V], ref{to: e.U, idx: int32(i)})
	}
	alive := make([]bool, len(tree))
	for i := range alive {
		alive[i] = true
	}

	// sideValid reports whether the component of start, with edge skip
	// removed, holds at least as many vertices as the largest effective
	// floor on that side. Reaching kmax vertices is always enough (no
	// floor exceeds it), so the BFS stops after kmax vertices and each
	// check costs O(kmax); if the side exhausts first, the demand is the
	// max floor over exactly the vertices seen.
	visitedStamp := make([]int32, n)
	var stamp int32
	queue := make([]int32, 0, kmax)
	sideValid := func(start int32, skip int32) bool {
		stamp++
		queue = queue[:0]
		queue = append(queue, start)
		visitedStamp[start] = stamp
		count := 1
		need := kOf(start)
		if count >= kmax {
			return true
		}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, r := range adj[u] {
				if r.idx == skip || !alive[r.idx] || visitedStamp[r.to] == stamp {
					continue
				}
				visitedStamp[r.to] = stamp
				count++
				if kv := kOf(r.to); kv > need {
					need = kv
				}
				if count >= kmax {
					return true
				}
				queue = append(queue, r.to)
			}
		}
		return count >= need
	}

	// Descending removal pass (reverse Kruskal order).
	for i := len(tree) - 1; i >= 0; i-- {
		e := tree[i]
		if sideValid(e.U, int32(i)) && sideValid(e.V, int32(i)) {
			alive[i] = false
		}
	}

	// Final components of the kept forest are the clusters; each one's
	// connectivity is the maximum kept edge weight inside it.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		if comp[v] >= 0 {
			continue
		}
		members := []int32{v}
		comp[v] = v
		need := kOf(v)
		var maxW int32
		for head := 0; head < len(members); head++ {
			u := members[head]
			for _, r := range adj[u] {
				if !alive[r.idx] || comp[r.to] >= 0 {
					continue
				}
				comp[r.to] = v
				members = append(members, r.to)
				if kv := kOf(r.to); kv > need {
					need = kv
				}
				if w := tree[r.idx].W; w > maxW {
					maxW = w
				}
			}
		}
		global := make([]int32, len(members))
		for j, lv := range members {
			global[j] = ids[lv]
		}
		slices.Sort(global)
		if len(members) < need {
			undersized = append(undersized, global)
			continue
		}
		clusters = append(clusters, &Cluster{
			ID:      int32(len(clusters)),
			Members: global,
			T:       maxW,
		})
	}
	return clusters, undersized
}

// RegisterCentralized runs CentralizedTConn and records every valid
// cluster in the registry. It returns the clusters and the count of
// users left unclustered because their component is undersized.
func RegisterCentralized(g *wpg.Graph, k int, reg *Registry) ([]*Cluster, int, error) {
	clusters, undersized := CentralizedTConn(g, k)
	registered, err := reg.AddBatch(clusters)
	if err != nil {
		return nil, 0, fmt.Errorf("core: register centralized clusters: %w", err)
	}
	skipped := 0
	for _, u := range undersized {
		skipped += len(u)
	}
	return registered, skipped, nil
}
