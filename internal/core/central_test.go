package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nonexposure/internal/graph"
	"nonexposure/internal/wpg"
)

// pathEdges returns a weight-1 path 0-1-...-(n-1); shared across tests.
func pathEdges(n int) []graph.Edge {
	var es []graph.Edge
	for i := 0; i < n-1; i++ {
		es = append(es, graph.Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	return es
}

// fig6Graph is the WPG of the paper's Fig. 6 (see the dendrogram tests for
// the transcription).
func fig6Graph() *wpg.Graph {
	return wpg.MustFromEdges(8, []graph.Edge{
		{U: 0, V: 1, W: 6}, {U: 0, V: 2, W: 7}, {U: 1, V: 2, W: 5},
		{U: 2, V: 3, W: 8},
		{U: 3, V: 4, W: 7}, {U: 3, V: 5, W: 3}, {U: 4, V: 5, W: 4},
		{U: 4, V: 6, W: 6}, {U: 5, V: 7, W: 6}, {U: 6, V: 7, W: 3},
	})
}

func memberSets(cs []*Cluster) [][]int32 {
	out := make([][]int32, len(cs))
	for i, c := range cs {
		out[i] = append([]int32(nil), c.Members...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

func TestCentralizedTConnPaperFig6(t *testing.T) {
	clusters, undersized := CentralizedTConn(fig6Graph(), 2)
	if len(undersized) != 0 {
		t.Fatalf("undersized = %v", undersized)
	}
	got := memberSets(clusters)
	want := [][]int32{{0, 1, 2}, {3, 4, 5}, {6, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clusters = %v, want %v", got, want)
	}
	// Connectivities: {0,1,2} connects at 6 (edges 5 and 6), {3,4,5} at 4,
	// {6,7} at 3.
	wantT := map[int32]int32{0: 6, 3: 4, 6: 3}
	for _, c := range clusters {
		if c.T != wantT[c.Members[0]] {
			t.Errorf("cluster %v connectivity = %d, want %d", c.Members, c.T, wantT[c.Members[0]])
		}
	}
}

func TestCentralizedTConnWholeGraphWhenKLarge(t *testing.T) {
	clusters, undersized := CentralizedTConn(fig6Graph(), 5)
	if len(undersized) != 0 {
		t.Fatalf("undersized = %v", undersized)
	}
	if len(clusters) != 1 || clusters[0].Size() != 8 {
		t.Fatalf("k=5 should keep one cluster of 8, got %v", memberSets(clusters))
	}
	if clusters[0].T != 8 {
		t.Errorf("whole-graph connectivity = %d, want 8 (the bridge)", clusters[0].T)
	}
}

func TestCentralizedTConnK1(t *testing.T) {
	clusters, undersized := CentralizedTConn(fig6Graph(), 1)
	if len(undersized) != 0 {
		t.Fatalf("undersized = %v", undersized)
	}
	if len(clusters) != 8 {
		t.Fatalf("k=1 should produce singletons, got %d clusters", len(clusters))
	}
}

func TestCentralizedTConnUndersizedComponents(t *testing.T) {
	// Two components: a triangle and an edge. k=3 leaves the edge
	// undersized.
	g := wpg.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 2},
		{U: 3, V: 4, W: 1},
	})
	clusters, undersized := CentralizedTConn(g, 3)
	if len(clusters) != 1 || clusters[0].Size() != 3 {
		t.Fatalf("clusters = %v", memberSets(clusters))
	}
	if len(undersized) != 1 || len(undersized[0]) != 2 {
		t.Fatalf("undersized = %v", undersized)
	}
}

func TestCentralizedTConnPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k < 1 should panic")
		}
	}()
	CentralizedTConn(fig6Graph(), 0)
}

func TestRegisterCentralized(t *testing.T) {
	g := wpg.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1},
	})
	reg := NewRegistry(5)
	clusters, skipped, err := RegisterCentralized(g, 3, reg)
	if err != nil {
		t.Fatalf("RegisterCentralized: %v", err)
	}
	if len(clusters) != 1 || skipped != 2 {
		t.Fatalf("clusters=%d skipped=%d", len(clusters), skipped)
	}
	if err := reg.CheckReciprocity(); err != nil {
		t.Errorf("CheckReciprocity: %v", err)
	}
	if reg.Assigned(3) || reg.Assigned(4) {
		t.Error("undersized component users must stay unassigned")
	}
}

func randomGraph(rng *rand.Rand, n, m, maxW int) *wpg.Graph {
	seen := make(map[[2]int32]bool)
	var edges []graph.Edge
	for len(edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		key := [2]int32{u, v}
		if u > v {
			key = [2]int32{v, u}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, graph.Edge{U: key[0], V: key[1], W: int32(1 + rng.Intn(maxW))})
	}
	return wpg.MustFromEdges(n, edges)
}

// Property: the centralized result is a partition; every cluster in a
// component of size >= k is valid; and the result is minimal — splitting
// any cluster at the next-lower connectivity would create an invalid piece.
func TestCentralizedTConnProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(60)
		g := randomGraph(rng, n, n*2, 9)
		k := 2 + rng.Intn(4)
		clusters, undersized := CentralizedTConn(g, k)

		seen := make([]bool, n)
		mark := func(vs []int32) {
			for _, v := range vs {
				if seen[v] {
					t.Fatalf("trial %d: vertex %d in two groups", trial, v)
				}
				seen[v] = true
			}
		}
		for _, c := range clusters {
			mark(c.Members)
			if c.Size() < k {
				t.Fatalf("trial %d: cluster %v smaller than k=%d", trial, c.Members, k)
			}
			// Validity: the cluster must be connected via edges <= T.
			if !isTConnectedSet(g, c.Members, c.T) {
				t.Fatalf("trial %d: cluster %v not %d-connected", trial, c.Members, c.T)
			}
			// Minimality: restricting to edges <= T-1 must split the
			// cluster so that some piece has < k members (otherwise a
			// smaller T would have been chosen).
			if c.T > 0 && !splitWouldInvalidate(g, c.Members, c.T-1, k) {
				t.Fatalf("trial %d: cluster %v (T=%d) could have used a smaller connectivity",
					trial, c.Members, c.T)
			}
		}
		for _, u := range undersized {
			mark(u)
			if len(u) >= k {
				t.Fatalf("trial %d: undersized group %v has >= k members", trial, u)
			}
		}
		for v, s := range seen {
			if !s {
				t.Fatalf("trial %d: vertex %d missing from partition", trial, v)
			}
		}
	}
}

// isTConnectedSet reports whether the members form a connected subgraph
// using only member-internal edges of weight <= t (t = 0 means a single
// vertex).
func isTConnectedSet(g *wpg.Graph, members []int32, t int32) bool {
	if len(members) == 1 {
		return true
	}
	in := make(map[int32]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	visited := map[int32]bool{members[0]: true}
	queue := []int32{members[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(u) {
			if e.W <= t && in[e.To] && !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return len(visited) == len(members)
}

// splitWouldInvalidate reports whether restricting the member-induced
// subgraph to edges of weight <= t leaves some connected piece with fewer
// than k members.
func splitWouldInvalidate(g *wpg.Graph, members []int32, t int32, k int) bool {
	in := make(map[int32]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	visited := make(map[int32]bool, len(members))
	for _, start := range members {
		if visited[start] {
			continue
		}
		size := 0
		queue := []int32{start}
		visited[start] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			size++
			for _, e := range g.Neighbors(u) {
				if e.W <= t && in[e.To] && !visited[e.To] {
					visited[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
		if size < k {
			return true
		}
	}
	return false
}

// relabeledTConn is the construction tconnInduced replaced: the
// member-internal edges of ids, relabeled in list order through a map,
// built into a graph with wpg.FromEdges, clustered with
// CentralizedTConnProfiled, and the result mapped back to global ids.
func relabeledTConn(g *wpg.Graph, ids []int32, k int, ks []int32) ([]*Cluster, [][]int32) {
	local := make(map[int32]int32, len(ids))
	for i, v := range ids {
		local[v] = int32(i)
	}
	var edges []graph.Edge
	for i, v := range ids {
		for _, e := range g.Neighbors(v) {
			if j, ok := local[e.To]; ok && int32(i) < j {
				edges = append(edges, graph.Edge{U: int32(i), V: j, W: e.W})
			}
		}
	}
	var localKs []int32
	if ks != nil {
		localKs = make([]int32, len(ids))
		for i, v := range ids {
			localKs[i] = ks[v]
		}
	}
	clusters, undersized := CentralizedTConnProfiled(wpg.MustFromEdges(len(ids), edges), k, localKs)
	global := func(ms []int32) []int32 {
		out := make([]int32, len(ms))
		for j, lv := range ms {
			out[j] = ids[lv]
		}
		slices.Sort(out)
		return out
	}
	for _, c := range clusters {
		c.Members = global(c.Members)
	}
	for i, u := range undersized {
		undersized[i] = global(u)
	}
	return clusters, undersized
}

// TestTConnInducedMatchesRelabeledSubgraph is the differential for the
// one relabel: clustering a vertex list in place must equal clustering
// the subgraph it induces, built and relabeled the old way — the same
// clusters (members, T and order) and undersized groups. Lists: every
// component in ascending order (the shard build, through
// ClusterComponentProfiled), random ascending subsets, and the same
// subsets shuffled (the span's discovery order); weights are drawn from
// a small range so (W, U, V) ties are everywhere.
func TestTConnInducedMatchesRelabeledSubgraph(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(n*(n-1)/4+1), 1+rng.Intn(4))
		comps := g.Components()
		var subsets [][]int32
		for range 3 {
			var sub []int32
			for v := range int32(n) {
				if rng.Intn(2) == 0 {
					sub = append(sub, v)
				}
			}
			shuffled := slices.Clone(sub)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			subsets = append(subsets, sub, shuffled)
		}
		for _, k := range []int{1, 2, 3, 5} {
			for _, floors := range []bool{false, true} {
				var ks []int32
				if floors {
					ks = make([]int32, n)
					for v := range ks {
						if rng.Intn(4) == 0 {
							ks[v] = int32(1 + rng.Intn(2*k+2))
						}
					}
				}
				check := func(what string, ids []int32, gotC []*Cluster, gotU [][]int32) {
					t.Helper()
					wantC, wantU := relabeledTConn(g, ids, k, ks)
					if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotU, wantU) {
						t.Fatalf("seed %d k=%d floors=%v %s %v:\n got %v undersized %v\nwant %v undersized %v",
							seed, k, floors, what, ids, clusterStrings(gotC), gotU, clusterStrings(wantC), wantU)
					}
				}
				for _, comp := range comps {
					gotC, gotU := ClusterComponentProfiled(g, comp, k, ks)
					check("component", comp, gotC, gotU)
				}
				for _, ids := range subsets {
					gotC, gotU := tconnInduced(ids, func(i int32) []wpg.Edge { return g.Neighbors(ids[i]) }, k, ks)
					check("subset", ids, gotC, gotU)
				}
			}
		}
	}
}

func clusterStrings(cs []*Cluster) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("#%d T=%d %v", c.ID, c.T, c.Members)
	}
	return out
}
