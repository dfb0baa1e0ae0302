package wpg

import (
	"math"
	"testing"

	"nonexposure/internal/dataset"
	"nonexposure/internal/geo"
	"nonexposure/internal/graph"
)

func TestBuildSimpleLine(t *testing.T) {
	// Four collinear users spaced 0.001 apart, delta 0.0015: only adjacent
	// users hear each other.
	pts := []geo.Point{{X: 0.1, Y: 0.5}, {X: 0.101, Y: 0.5}, {X: 0.102, Y: 0.5}, {X: 0.103, Y: 0.5}}
	g := Build(pts, BuildParams{Delta: 0.0015, MaxPeers: 10})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3 (chain)", g.NumEdges())
	}
	for _, pair := range [][2]int32{{0, 1}, {1, 2}, {2, 3}} {
		if _, ok := g.Weight(pair[0], pair[1]); !ok {
			t.Errorf("missing edge %v", pair)
		}
	}
	if _, ok := g.Weight(0, 2); ok {
		t.Error("0 and 2 are out of range of each other")
	}
}

func TestBuildRankWeights(t *testing.T) {
	// User 0 at origin-ish; user 1 is its closest peer, user 2 second.
	// From 1's perspective, 0 is closest. Weight(0,1) should be 1 (both
	// rank each other first); weight(0,2) = min(rank_0(2)=2, rank_2(0)=1) = 1
	// because 0 is 2's closest peer too.
	pts := []geo.Point{
		{X: 0.5, Y: 0.5},
		{X: 0.5005, Y: 0.5},
		{X: 0.5, Y: 0.5009},
	}
	g := Build(pts, BuildParams{Delta: 0.002, MaxPeers: 10})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	w01, ok := g.Weight(0, 1)
	if !ok || w01 != 1 {
		t.Errorf("Weight(0,1) = %d,%v want 1,true", w01, ok)
	}
	// dist(1,2) = sqrt(0.0005² + 0.0009²) ≈ 0.00103: rank_1(2)=2, rank_2(1)=2.
	w12, ok := g.Weight(1, 2)
	if !ok || w12 != 2 {
		t.Errorf("Weight(1,2) = %d,%v want 2,true", w12, ok)
	}
}

func TestBuildMutualTopM(t *testing.T) {
	// A hub with three satellites and MaxPeers=1: the hub keeps only its
	// nearest satellite, so edges to the other two are dropped even though
	// the satellites keep the hub.
	pts := []geo.Point{
		{X: 0.5, Y: 0.5},    // hub
		{X: 0.5003, Y: 0.5}, // nearest satellite
		{X: 0.5, Y: 0.5006},
		{X: 0.4994, Y: 0.5},
	}
	g := Build(pts, BuildParams{Delta: 0.002, MaxPeers: 1})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (only the mutual pair)", g.NumEdges())
	}
	if _, ok := g.Weight(0, 1); !ok {
		t.Error("hub should connect to its nearest satellite")
	}
}

func TestBuildDegreeCappedByM(t *testing.T) {
	ds := dataset.GaussianClusters(3000, 3, 0.01, 13)
	for _, m := range []int{2, 5, 10} {
		g := Build(ds, BuildParams{Delta: 2e-3, MaxPeers: m})
		if err := g.Validate(); err != nil {
			t.Fatalf("M=%d Validate: %v", m, err)
		}
		st := g.Stats()
		if st.MaxDegree > m {
			t.Errorf("M=%d: max degree %d exceeds cap", m, st.MaxDegree)
		}
		if st.MaxWeight > int32(m) {
			t.Errorf("M=%d: max weight %d exceeds cap", m, st.MaxWeight)
		}
	}
}

func TestBuildAvgDegreeGrowsWithM(t *testing.T) {
	ds := dataset.GaussianClusters(4000, 4, 0.01, 21)
	prev := -1.0
	for _, m := range []int{2, 4, 8, 16} {
		g := Build(ds, BuildParams{Delta: 2e-3, MaxPeers: m})
		avg := g.Stats().AvgDegree
		if avg < prev {
			t.Errorf("avg degree decreased from %v to %v when M grew to %d", prev, avg, m)
		}
		prev = avg
	}
}

func TestBuildUnlimitedPeers(t *testing.T) {
	pts := []geo.Point{
		{X: 0.5, Y: 0.5}, {X: 0.5002, Y: 0.5}, {X: 0.5, Y: 0.5002},
		{X: 0.4998, Y: 0.5}, {X: 0.5, Y: 0.4998},
	}
	g := Build(pts, BuildParams{Delta: 0.002, MaxPeers: 0}) // unlimited
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// All pairs are within delta: complete graph on 5 vertices.
	if g.NumEdges() != 10 {
		t.Errorf("edges = %d, want 10 (complete K5)", g.NumEdges())
	}
}

func TestBuildEmptyAndSingle(t *testing.T) {
	g := Build(nil, DefaultBuildParams())
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Error("empty input should give empty graph")
	}
	g = Build([]geo.Point{{X: 0.5, Y: 0.5}}, DefaultBuildParams())
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Error("single point should give one isolated vertex")
	}
}

func TestBuildPanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Delta <= 0 should panic")
		}
	}()
	Build([]geo.Point{{X: 0.5, Y: 0.5}}, BuildParams{Delta: 0})
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(3, []graph.Edge{{U: 0, V: 0, W: 1}}); err == nil {
		t.Error("self loop should error")
	}
	if _, err := FromEdges(3, []graph.Edge{{U: 0, V: 5, W: 1}}); err == nil {
		t.Error("out-of-range vertex should error")
	}
	if _, err := FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 0}}); err == nil {
		t.Error("weight < 1 should error")
	}
	if _, err := FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 2}}); err == nil {
		t.Error("duplicate edge should error")
	}
	g, err := FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1}})
	if err != nil {
		t.Fatalf("valid edges: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
	// Adjacency sorted by weight: (1,2) weight 1 before (1,0) weight 2.
	nb := g.Neighbors(1)
	if nb[0].To != 2 || nb[1].To != 0 {
		t.Errorf("Neighbors(1) = %v, want weight-sorted [2 0]", nb)
	}
}

func TestMustFromEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFromEdges should panic on invalid input")
		}
	}()
	MustFromEdges(2, []graph.Edge{{U: 0, V: 0, W: 1}})
}

func TestEdgesRoundTrip(t *testing.T) {
	ds := dataset.Uniform(500, 3)
	g := Build(ds, BuildParams{Delta: 0.05, MaxPeers: 6})
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges len %d != NumEdges %d", len(edges), g.NumEdges())
	}
	g2, err := FromEdges(g.NumVertices(), edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency mismatch at %d", v, i)
			}
		}
	}
}

func TestStats(t *testing.T) {
	g := MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 5}})
	st := g.Stats()
	if st.Vertices != 4 || st.EdgesCount != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.MaxDegree != 2 || st.MinDegree != 0 || st.IsolatedVtxs != 1 {
		t.Errorf("degree stats = %+v", st)
	}
	if st.MaxWeight != 5 {
		t.Errorf("MaxWeight = %d, want 5", st.MaxWeight)
	}
	if math.Abs(st.AvgDegree-1.0) > 1e-12 {
		t.Errorf("AvgDegree = %v, want 1.0", st.AvgDegree)
	}
	empty := MustFromEdges(0, nil)
	st = empty.Stats()
	if st.Vertices != 0 || st.MinDegree != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

// Property: the grid neighbor search must find exactly the same edge set
// as a brute-force O(n²) scan.
func TestBuildMatchesBruteForce(t *testing.T) {
	ds := dataset.GaussianClusters(400, 5, 0.02, 31)
	p := BuildParams{Delta: 5e-3, MaxPeers: 4}
	fast := Build(ds, p)

	// Brute force reimplementation.
	n := len(ds)
	type cand struct {
		peer int32
		dist float64
	}
	ranks := make([]map[int32]int, n)
	for v := 0; v < n; v++ {
		var cs []cand
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			d := ds[v].Dist(ds[u])
			if d <= p.Delta {
				cs = append(cs, cand{int32(u), d})
			}
		}
		// Sort by distance asc (RSS desc for a monotone model), tie by id.
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && (cs[j].dist < cs[j-1].dist ||
				(cs[j].dist == cs[j-1].dist && cs[j].peer < cs[j-1].peer)); j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
		if len(cs) > p.MaxPeers {
			cs = cs[:p.MaxPeers]
		}
		ranks[v] = make(map[int32]int, len(cs))
		for i, c := range cs {
			ranks[v][c.peer] = i + 1
		}
	}
	for v := 0; v < n; v++ {
		for u, rv := range ranks[v] {
			ru, mutual := ranks[u][int32(v)]
			w, hasEdge := fast.Weight(int32(v), u)
			if mutual != hasEdge {
				t.Fatalf("edge (%d,%d): brute mutual=%v fast=%v", v, u, mutual, hasEdge)
			}
			if mutual {
				want := int32(rv)
				if int32(ru) < want {
					want = int32(ru)
				}
				if w != want {
					t.Fatalf("edge (%d,%d): weight %d, brute %d", v, u, w, want)
				}
			}
		}
		// And no extra edges in fast.
		for _, e := range fast.Neighbors(int32(v)) {
			if _, ok := ranks[v][e.To]; !ok {
				t.Fatalf("fast has edge (%d,%d) absent from brute force", v, e.To)
			}
		}
	}
}
