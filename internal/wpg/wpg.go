// Package wpg builds and represents the weighted proximity graph (WPG) of
// Section IV: an undirected graph whose vertices are users and whose edge
// weights are relative proximity ranks derived from received signal
// strength.
//
// A Graph deliberately carries no coordinates — it is exactly the
// information a device learns through its antenna, which is the paper's
// non-exposure premise. Coordinates only reappear in the secure-bounding
// phase, where each user privately compares its own coordinate against
// proposed bounds.
package wpg

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nonexposure/internal/geo"
	"nonexposure/internal/graph"
	"nonexposure/internal/rss"
)

// Edge is one directed half of an undirected WPG edge, stored in the
// adjacency list of its origin vertex.
type Edge struct {
	To int32
	// W is the symmetric rank weight: min(rank_a(b), rank_b(a)), so
	// smaller means closer. Weights start at 1.
	W int32
}

// Graph is an undirected weighted proximity graph over vertices 0..n-1.
// Adjacency lists ("rows") are sorted by (W, To), which the clustering
// algorithms rely on for deterministic tie-breaking.
//
// A Graph and every one of its rows are immutable once a constructor
// returns: nothing writes into a row afterwards, and every row has
// cap == len, so even an append by a careless caller copies instead of
// writing into the backing array. That is what lets Rewire share every
// row it does not replace with its predecessor: successive epoch
// generations hold one copy of each unchanged row between them.
type Graph struct {
	adj   [][]Edge
	edges int
}

// BuildParams configures WPG construction.
type BuildParams struct {
	// Delta is the radio range: users farther apart than Delta cannot
	// hear each other (Table I default: 2×10⁻³).
	Delta float64
	// MaxPeers is M, the per-device connection cap (Table I default: 10).
	// Zero or negative means unlimited.
	MaxPeers int
	// Model converts distance to RSS. Nil defaults to rss.InverseModel,
	// the paper's experimental model.
	Model rss.Model
}

// DefaultBuildParams returns the Table I settings.
func DefaultBuildParams() BuildParams {
	return BuildParams{Delta: 2e-3, MaxPeers: 10, Model: rss.InverseModel{}}
}

// Build constructs the WPG of the given user positions:
//
//  1. every user measures RSS to all peers within Delta (grid-bucket
//     neighbor search);
//  2. every user keeps only its MaxPeers strongest peers;
//  3. an undirected edge (a,b) exists iff a and b keep each other, and its
//     weight is min(rank_a(b), rank_b(a)) — the paper's symmetric,
//     mutually-agreed relative distance.
func Build(points []geo.Point, p BuildParams) *Graph {
	if p.Model == nil {
		p.Model = rss.InverseModel{}
	}
	if p.Delta <= 0 {
		panic("wpg: Delta must be positive")
	}
	n := len(points)
	g := &Graph{adj: make([][]Edge, n)}
	if n == 0 {
		return g
	}

	idx := newGridIndex(points, p.Delta)
	deltaSq := p.Delta * p.Delta

	// Per-vertex kept peers and their ranks.
	ranks := make([]map[int32]int, n)
	meas := make([]rss.Measurement, 0, 64)
	for v := 0; v < n; v++ {
		meas = meas[:0]
		idx.forNeighbors(points, int32(v), deltaSq, func(u int32) {
			d := points[v].Dist(points[u])
			meas = append(meas, rss.Measurement{Peer: u, RSS: p.Model.Signal(d)})
		})
		kept := meas
		if p.MaxPeers > 0 {
			kept = rss.TopM(kept, p.MaxPeers)
		}
		ranks[v] = rss.Rank(kept)
	}

	// Materialize mutual edges.
	for v := 0; v < n; v++ {
		for u, rv := range ranks[v] {
			if int32(v) < u { // handle each unordered pair once
				if ru, ok := ranks[u][int32(v)]; ok {
					w := int32(rv)
					if int32(ru) < w {
						w = int32(ru)
					}
					g.adj[v] = append(g.adj[v], Edge{To: u, W: w})
					g.adj[u] = append(g.adj[u], Edge{To: int32(v), W: w})
				}
			}
		}
	}
	g.sortAdj()
	return g
}

// FromEdges constructs a graph directly from undirected edges; used by
// tests and by the epoch pipeline's from-scratch builds. Edges must have weights >= 1;
// duplicate pairs are rejected.
//
// The rows are cut from one exactly-sized buffer, and duplicates are
// caught with a dense per-vertex stamp rather than a map of pairs: an
// undirected pair listed twice shows up twice in both endpoints' rows.
func FromEdges(n int, edges []graph.Edge) (*Graph, error) {
	deg := make([]int32, n)
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("wpg: self loop on vertex %d", e.U)
		}
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("wpg: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.W < 1 {
			return nil, fmt.Errorf("wpg: edge (%d,%d) weight %d < 1", e.U, e.V, e.W)
		}
		deg[e.U]++
		deg[e.V]++
	}
	g := &Graph{adj: make([][]Edge, n)}
	buf := make([]Edge, 2*len(edges))
	off := 0
	for v, d := range deg {
		if d > 0 {
			g.adj[v] = buf[off : off : off+int(d)]
			off += int(d)
		}
	}
	for _, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], Edge{To: e.V, W: e.W})
		g.adj[e.V] = append(g.adj[e.V], Edge{To: e.U, W: e.W})
	}
	stamp := deg
	clear(stamp)
	for v, row := range g.adj {
		for _, e := range row {
			if stamp[e.To] == int32(v)+1 {
				return nil, fmt.Errorf("wpg: duplicate edge (%d,%d)", min(int32(v), e.To), max(int32(v), e.To))
			}
			stamp[e.To] = int32(v) + 1
		}
	}
	g.sortAdj()
	return g, nil
}

// MustFromEdges is FromEdges that panics on error; for tests and examples
// with literal edge sets.
func MustFromEdges(n int, edges []graph.Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sortAdj puts every row in canonical (W, To) order, clips it to
// cap == len, and counts the edges.
func (g *Graph) sortAdj() {
	total := 0
	for v, a := range g.adj {
		sortRow(a)
		g.adj[v] = slices.Clip(a)
		total += len(a)
	}
	g.edges = total / 2
}

// sortRow sorts a row by (W, To). Rows never list a neighbor twice, so
// the comparison is a total order and the result is unique.
func sortRow(a []Edge) {
	if len(a) > 1 {
		slices.SortFunc(a, compareEdges)
	}
}

func compareEdges(a, b Edge) int {
	if a.W != b.W {
		return cmp.Compare(a.W, b.W)
	}
	return cmp.Compare(a.To, b.To)
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.adj) }

// Neighbors returns v's adjacency list, sorted by (weight, id). The row
// is immutable and may be shared with other graphs (see Rewire): callers
// must never write into it.
func (g *Graph) Neighbors(v int32) []Edge { return g.adj[v] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return len(g.adj[v]) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Edges returns all undirected edges (each pair once, U < V).
func (g *Graph) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, g.NumEdges())
	for v, a := range g.adj {
		for _, e := range a {
			if int32(v) < e.To {
				out = append(out, graph.Edge{U: int32(v), V: e.To, W: e.W})
			}
		}
	}
	return out
}

// Components returns the connected components of the graph as vertex
// lists. Each component's members are sorted ascending, and the
// components themselves are ordered by their smallest member — the same
// order in which a full-graph scan from vertex 0 discovers them, so
// component-parallel clustering can reproduce the serial result exactly.
func (g *Graph) Components() [][]int32 {
	n := len(g.adj)
	visited := make([]bool, n)
	var comps [][]int32
	for v := 0; v < n; v++ {
		if visited[v] {
			continue
		}
		members := []int32{int32(v)}
		visited[v] = true
		for head := 0; head < len(members); head++ {
			for _, e := range g.adj[members[head]] {
				if !visited[e.To] {
					visited[e.To] = true
					members = append(members, e.To)
				}
			}
		}
		slices.Sort(members)
		comps = append(comps, members)
	}
	return comps
}

// SharedRow reports whether a and b hold the very same row for v: the
// same backing array and length, or both empty. Rows are immutable, so
// a shared row is an equal row; this is the O(1) test the incremental
// epoch rebuild uses to prove a component untouched before it splices
// the component's previous clusters — every member keeping its whole
// row also proves the members still form a component. v must be a
// vertex of both graphs.
func SharedRow(a, b *Graph, v int32) bool {
	ar, br := a.adj[v], b.adj[v]
	if len(ar) != len(br) {
		return false
	}
	return len(ar) == 0 || &ar[0] == &br[0]
}

// Rewire returns the successor of g in which each vertex vs[i] has the
// complete adjacency row rows[i]: every listed edge is mirrored into
// the other endpoint's row, and every edge between vs[i] and a vertex
// outside vs that rows[i] no longer lists is removed from both sides.
// Every other row is shared with g, not copied, and so is a vs row
// whose content did not change. touched lists, ascending, the vertices
// whose rows changed; each of them gets a fresh row with cap == len.
// The edge count is carried forward from g rather than recounted.
//
// rows are sorted in place and not retained. The rows of two vertices
// of vs must agree on the edge between them; a row with a self loop, an
// out-of-range neighbor, a weight below 1, or a neighbor listed twice
// is rejected, and so is a vertex listed twice in vs.
func (g *Graph) Rewire(vs []int32, rows [][]Edge) (next *Graph, touched []int32, err error) {
	n := len(g.adj)
	if len(vs) != len(rows) {
		return nil, nil, fmt.Errorf("wpg: Rewire: %d vertices but %d rows", len(vs), len(rows))
	}
	// pos[v] is 1 + v's index in vs (0 = not rewired); stamp marks the
	// neighbors already seen in the row being checked, then the outside
	// vertices already queued for a row update.
	pos := make([]int32, n)
	stamp := make([]int32, n)
	for i, v := range vs {
		if v < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("wpg: Rewire vertex %d out of range [0,%d)", v, n)
		}
		if pos[v] != 0 {
			return nil, nil, fmt.Errorf("wpg: Rewire vertex %d listed twice", v)
		}
		pos[v] = int32(i) + 1
	}
	for i, v := range vs {
		for _, e := range rows[i] {
			switch {
			case e.To == v:
				return nil, nil, fmt.Errorf("wpg: self loop on vertex %d", v)
			case e.To < 0 || int(e.To) >= n:
				return nil, nil, fmt.Errorf("wpg: edge (%d,%d) out of range [0,%d)", v, e.To, n)
			case e.W < 1:
				return nil, nil, fmt.Errorf("wpg: edge (%d,%d) weight %d < 1", v, e.To, e.W)
			case stamp[e.To] == int32(i)+1:
				return nil, nil, fmt.Errorf("wpg: duplicate edge (%d,%d)", min(v, e.To), max(v, e.To))
			}
			stamp[e.To] = int32(i) + 1
			if p := pos[e.To]; p != 0 && !slices.Contains(rows[p-1], Edge{To: v, W: e.W}) {
				return nil, nil, fmt.Errorf("wpg: edge (%d,%d) weight %d has no matching reverse", v, e.To, e.W)
			}
		}
	}

	next = &Graph{adj: make([][]Edge, n)}
	copy(next.adj, g.adj)
	// halfEdges tracks the change in row lengths; every edge added or
	// removed changes two rows, both of which pass through replace.
	halfEdges := 0
	replace := func(v int32, row []Edge) {
		sortRow(row)
		old := g.adj[v]
		if slices.Equal(old, row) {
			return
		}
		fresh := make([]Edge, len(row))
		copy(fresh, row)
		next.adj[v] = fresh
		halfEdges += len(row) - len(old)
		touched = append(touched, v)
	}

	// Outside vertices adjacent to a rewired vertex before or after
	// gain, keep, or lose edges; collect what each one gains.
	type gain struct {
		v int32
		e Edge
	}
	clear(stamp)
	var outside []int32
	var gains []gain
	mark := func(u int32) {
		if pos[u] == 0 && stamp[u] == 0 {
			stamp[u] = 1
			outside = append(outside, u)
		}
	}
	for i, v := range vs {
		for _, e := range g.adj[v] {
			mark(e.To)
		}
		for _, e := range rows[i] {
			mark(e.To)
			if pos[e.To] == 0 {
				gains = append(gains, gain{v: e.To, e: Edge{To: v, W: e.W}})
			}
		}
	}
	for i, v := range vs {
		replace(v, rows[i])
	}
	slices.Sort(outside)
	slices.SortFunc(gains, func(a, b gain) int { return cmp.Compare(a.v, b.v) })
	var scratch []Edge
	for _, u := range outside {
		scratch = scratch[:0]
		for _, e := range g.adj[u] {
			if pos[e.To] == 0 {
				scratch = append(scratch, e)
			}
		}
		for len(gains) > 0 && gains[0].v == u {
			scratch = append(scratch, gains[0].e)
			gains = gains[1:]
		}
		replace(u, scratch)
	}
	next.edges = g.edges + halfEdges/2
	slices.Sort(touched)
	return next, touched, nil
}

// Weight returns the weight of edge (u,v) and whether it exists.
func (g *Graph) Weight(u, v int32) (int32, bool) {
	for _, e := range g.adj[u] {
		if e.To == v {
			return e.W, true
		}
	}
	return 0, false
}

// Validate checks structural invariants: symmetry, matching weights, no
// self loops, weights >= 1, sorted adjacency, rows clipped to
// cap == len, and the carried edge count.
func (g *Graph) Validate() error {
	total := 0
	for v, a := range g.adj {
		total += len(a)
		if cap(a) != len(a) {
			return fmt.Errorf("wpg: row of %d has spare capacity (len %d, cap %d)", v, len(a), cap(a))
		}
		for i, e := range a {
			if e.To == int32(v) {
				return fmt.Errorf("wpg: self loop on %d", v)
			}
			if e.W < 1 {
				return fmt.Errorf("wpg: edge (%d,%d) weight %d < 1", v, e.To, e.W)
			}
			if i > 0 && (a[i-1].W > e.W || (a[i-1].W == e.W && a[i-1].To >= e.To)) {
				return fmt.Errorf("wpg: adjacency of %d not sorted at index %d", v, i)
			}
			w, ok := g.Weight(e.To, int32(v))
			if !ok {
				return fmt.Errorf("wpg: edge (%d,%d) missing reverse", v, e.To)
			}
			if w != e.W {
				return fmt.Errorf("wpg: edge (%d,%d) weight mismatch %d vs %d", v, e.To, e.W, w)
			}
		}
	}
	if total != 2*g.edges {
		return fmt.Errorf("wpg: edge count %d, rows hold %d half-edges", g.edges, total)
	}
	return nil
}

// Stats summarizes the topology; the experiments report AvgDegree, which
// the paper's Fig. 9 sweep varies via M.
type Stats struct {
	Vertices     int
	EdgesCount   int
	AvgDegree    float64
	MaxDegree    int
	MinDegree    int
	MaxWeight    int32
	IsolatedVtxs int
}

// Stats computes topology statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Vertices: len(g.adj), MinDegree: math.MaxInt}
	var degSum int
	for _, a := range g.adj {
		d := len(a)
		degSum += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d == 0 {
			s.IsolatedVtxs++
		}
		for _, e := range a {
			if e.W > s.MaxWeight {
				s.MaxWeight = e.W
			}
		}
	}
	if len(g.adj) == 0 {
		s.MinDegree = 0
		return s
	}
	s.EdgesCount = degSum / 2
	s.AvgDegree = float64(degSum) / float64(len(g.adj))
	return s
}

// gridIndex buckets points into square cells of side = delta so that all
// neighbors within delta of a point lie in the 3×3 cell block around it.
type gridIndex struct {
	cell    float64
	cols    int
	rows    int
	origin  geo.Point
	buckets [][]int32
}

func newGridIndex(points []geo.Point, cell float64) *gridIndex {
	b := geo.RectFrom(points...)
	cols := int(b.Width()/cell) + 1
	rows := int(b.Height()/cell) + 1
	gi := &gridIndex{
		cell:    cell,
		cols:    cols,
		rows:    rows,
		origin:  b.Min,
		buckets: make([][]int32, cols*rows),
	}
	for i, p := range points {
		bk := gi.bucketOf(p)
		gi.buckets[bk] = append(gi.buckets[bk], int32(i))
	}
	return gi
}

func (gi *gridIndex) bucketOf(p geo.Point) int {
	cx := int((p.X - gi.origin.X) / gi.cell)
	cy := int((p.Y - gi.origin.Y) / gi.cell)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= gi.cols {
		cx = gi.cols - 1
	}
	if cy >= gi.rows {
		cy = gi.rows - 1
	}
	return cy*gi.cols + cx
}

// forNeighbors calls fn for every point within sqrt(deltaSq) of points[v],
// excluding v itself.
func (gi *gridIndex) forNeighbors(points []geo.Point, v int32, deltaSq float64, fn func(u int32)) {
	p := points[v]
	cx := int((p.X - gi.origin.X) / gi.cell)
	cy := int((p.Y - gi.origin.Y) / gi.cell)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			x, y := cx+dx, cy+dy
			if x < 0 || y < 0 || x >= gi.cols || y >= gi.rows {
				continue
			}
			for _, u := range gi.buckets[y*gi.cols+x] {
				if u != v && p.DistSq(points[u]) <= deltaSq {
					fn(u)
				}
			}
		}
	}
}
