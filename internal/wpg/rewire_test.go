package wpg

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nonexposure/internal/graph"
)

// randomEdges returns a random simple edge set over n vertices.
func randomEdges(rng *rand.Rand, n, m int) map[[2]int32]int32 {
	out := make(map[[2]int32]int32, m)
	for len(out) < m {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		out[[2]int32{a, b}] = int32(1 + rng.Intn(6))
	}
	return out
}

func edgeList(set map[[2]int32]int32) []graph.Edge {
	out := make([]graph.Edge, 0, len(set))
	for k, w := range set {
		out = append(out, graph.Edge{U: k[0], V: k[1], W: w})
	}
	return out
}

// TestRewireMatchesFromEdges rewires random graphs around random vertex
// sets — edges dropped, added and re-weighted, all incident to the set —
// and checks the successor against a from-scratch build of the same
// edge set, row by row, plus the sharing contract: every row outside
// touched is the predecessor's very row, and every touched row is
// fresh with cap == len.
func TestRewireMatchesFromEdges(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		before := randomEdges(rng, n, rng.Intn(n*(n-1)/4+1))
		g := MustFromEdges(n, edgeList(before))

		inSet := make([]bool, n)
		var vs []int32
		for _, v := range rng.Perm(n)[:1+rng.Intn(n/2+1)] {
			inSet[v] = true
			vs = append(vs, int32(v))
		}
		after := make(map[[2]int32]int32, len(before))
		for k, w := range before {
			touches := inSet[k[0]] || inSet[k[1]]
			switch {
			case touches && rng.Intn(4) == 0: // dropped
			case touches && rng.Intn(4) == 0:
				after[k] = w + 1 // re-weighted
			default:
				after[k] = w
			}
		}
		for _, k := range randomEdgesKeys(rng, n, rng.Intn(n)) {
			if inSet[k[0]] || inSet[k[1]] {
				after[k] = int32(1 + rng.Intn(6)) // added (or re-weighted)
			}
		}
		want := MustFromEdges(n, edgeList(after))

		rows := make([][]Edge, len(vs))
		for i, v := range vs {
			rows[i] = append([]Edge(nil), want.Neighbors(v)...)
			rng.Shuffle(len(rows[i]), func(a, b int) { rows[i][a], rows[i][b] = rows[i][b], rows[i][a] })
		}
		got, touched, err := g.Rewire(vs, rows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: successor invalid: %v", seed, err)
		}
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("seed %d: %d edges, want %d", seed, got.NumEdges(), want.NumEdges())
		}
		if !slices.IsSorted(touched) {
			t.Fatalf("seed %d: touched %v not ascending", seed, touched)
		}
		for v := int32(0); v < int32(n); v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("seed %d: row %d = %v, want %v", seed, v, got.Neighbors(v), want.Neighbors(v))
			}
			_, isTouched := slices.BinarySearch(touched, v)
			if isTouched == slices.Equal(g.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("seed %d: vertex %d touched=%v but row changed=%v", seed, v, isTouched, !isTouched)
			}
			shared := SharedRow(g, got, v)
			if !isTouched && !shared {
				t.Fatalf("seed %d: untouched row %d was copied, not shared", seed, v)
			}
			if isTouched && len(g.Neighbors(v)) > 0 && len(got.Neighbors(v)) > 0 && shared {
				t.Fatalf("seed %d: touched row %d still shares the old backing array", seed, v)
			}
		}
		// The predecessor is untouched by the rewire.
		if !slices.EqualFunc(g.Edges(), MustFromEdges(n, edgeList(before)).Edges(), func(a, b graph.Edge) bool { return a == b }) {
			t.Fatalf("seed %d: Rewire modified its receiver", seed)
		}
	}
}

func randomEdgesKeys(rng *rand.Rand, n, m int) [][2]int32 {
	var out [][2]int32
	for k := range randomEdges(rng, n, min(m, n*(n-1)/2)) {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

func TestRewireRejectsInvalidRows(t *testing.T) {
	g := MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}})
	for _, tc := range []struct {
		name string
		vs   []int32
		rows [][]Edge
		want string
	}{
		{"row count", []int32{0}, nil, "rows"},
		{"vertex twice", []int32{0, 0}, [][]Edge{nil, nil}, "listed twice"},
		{"vertex out of range", []int32{7}, [][]Edge{nil}, "out of range"},
		{"self loop", []int32{0}, [][]Edge{{{To: 0, W: 1}}}, "self loop"},
		{"neighbor out of range", []int32{0}, [][]Edge{{{To: 9, W: 1}}}, "out of range"},
		{"weight", []int32{0}, [][]Edge{{{To: 1, W: 0}}}, "weight 0"},
		{"neighbor twice", []int32{0}, [][]Edge{{{To: 1, W: 1}, {To: 1, W: 2}}}, "duplicate edge (0,1)"},
		{"rows disagree", []int32{0, 1}, [][]Edge{{{To: 1, W: 1}}, {{To: 0, W: 3}}}, "no matching reverse"},
		{"one-sided", []int32{0, 1}, [][]Edge{{{To: 1, W: 1}}, nil}, "no matching reverse"},
	} {
		if _, _, err := g.Rewire(tc.vs, tc.rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFromEdgesRowsAreClipped(t *testing.T) {
	g := MustFromEdges(5, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1}, {U: 3, V: 1, W: 1}})
	for v := int32(0); v < 5; v++ {
		if row := g.Neighbors(v); cap(row) != len(row) {
			t.Errorf("row %d: len %d cap %d", v, len(row), cap(row))
		}
	}
	// Duplicate pairs are caught whichever way round and however far
	// apart they are listed.
	if _, err := FromEdges(5, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1}, {U: 2, V: 1, W: 5}}); err == nil ||
		!strings.Contains(err.Error(), "duplicate edge (1,2)") {
		t.Errorf("duplicate (2,1) after (1,2): err = %v", err)
	}
}

func TestValidateCatchesCarriedState(t *testing.T) {
	spare := make([]Edge, 1, 4)
	spare[0] = Edge{To: 1, W: 1}
	g := &Graph{adj: [][]Edge{spare, {{To: 0, W: 1}}}, edges: 1}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "spare capacity") {
		t.Errorf("row with spare capacity: err = %v", err)
	}
	g = &Graph{adj: [][]Edge{{{To: 1, W: 1}}, {{To: 0, W: 1}}}, edges: 2}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "edge count") {
		t.Errorf("wrong carried edge count: err = %v", err)
	}
}
