package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"nonexposure/internal/dataset"
	"nonexposure/internal/graph"
	"nonexposure/internal/trace"
	"nonexposure/internal/wpg"
)

// multiComponentGraph builds a WPG with many well-separated components:
// isolated Gaussian blobs with a radio range far below the blob spacing.
func multiComponentGraph(t testing.TB, n int, seed int64) *wpg.Graph {
	t.Helper()
	pts := dataset.GaussianClusters(n, 12, 0.015, seed)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.02, MaxPeers: 8})
	if len(g.Components()) < 4 {
		t.Fatalf("test graph has only %d components, want a multi-component WPG", len(g.Components()))
	}
	return g
}

func TestCentralizedTConnParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *wpg.Graph
		k    int
	}{
		{"fig6-k2", fig6Graph(), 2},
		{"fig6-k5", fig6Graph(), 5},
		{"fig6-k1", fig6Graph(), 1},
		{"blobs-k4", multiComponentGraph(t, 600, 7), 4},
		{"blobs-k10", multiComponentGraph(t, 900, 11), 10},
		{"empty", wpg.MustFromEdges(0, nil), 3},
		{"isolated", wpg.MustFromEdges(5, nil), 2},
	} {
		for _, workers := range []int{0, 1, 2, 7} {
			wantC, wantU := CentralizedTConn(tc.g, tc.k)
			gotC, gotU := CentralizedTConnParallel(tc.g, tc.k, workers)
			if !reflect.DeepEqual(gotC, wantC) {
				t.Errorf("%s workers=%d: clusters differ: got %d, want %d",
					tc.name, workers, len(gotC), len(wantC))
			}
			if !reflect.DeepEqual(gotU, wantU) {
				t.Errorf("%s workers=%d: undersized differ: got %v, want %v",
					tc.name, workers, gotU, wantU)
			}
		}
	}
}

func TestCentralizedTConnParallelDeterministic(t *testing.T) {
	g := multiComponentGraph(t, 800, 3)
	first, firstU := CentralizedTConnParallel(g, 5, 4)
	for i := 0; i < 5; i++ {
		again, againU := CentralizedTConnParallel(g, 5, 4)
		if !reflect.DeepEqual(again, first) || !reflect.DeepEqual(againU, firstU) {
			t.Fatalf("run %d differs from first run", i)
		}
	}
}

func TestCentralizedTConnParallelPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k = 0 should panic")
		}
	}()
	CentralizedTConnParallel(fig6Graph(), 0, 2)
}

func TestCentralizedTConnParallelSingleComponent(t *testing.T) {
	// One chain: a single worker job; must still match the serial cut.
	g := wpg.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 5}, {U: 2, V: 3, W: 2},
		{U: 3, V: 4, W: 4}, {U: 4, V: 5, W: 3},
	})
	wantC, wantU := CentralizedTConn(g, 2)
	gotC, gotU := CentralizedTConnParallel(g, 2, 8)
	if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotU, wantU) {
		t.Errorf("single-component result differs: got %+v, want %+v", gotC, wantC)
	}
}

// TestClusterComponentMatchesWholeGraph: clustering one component
// through the exported shard entry point must reproduce exactly that
// component's slice of the whole-graph clustering (cluster IDs are
// local, so compare members and thresholds).
func TestClusterComponentMatchesWholeGraph(t *testing.T) {
	g := multiComponentGraph(t, 600, 9)
	wholeC, wholeU := CentralizedTConn(g, 4)
	var gotC []*Cluster
	var gotU [][]int32
	for _, members := range g.Components() {
		c, u := ClusterComponentProfiled(g, members, 4, nil)
		gotC = append(gotC, c...)
		gotU = append(gotU, u...)
	}
	if len(gotC) != len(wholeC) {
		t.Fatalf("clusters = %d, want %d", len(gotC), len(wholeC))
	}
	// Component order is ascending smallest member and the serial scan
	// emits clusters in ascending member order too, so the concatenation
	// lines up positionally after sorting by smallest member.
	sort.Slice(gotC, func(i, j int) bool { return gotC[i].Members[0] < gotC[j].Members[0] })
	for i := range gotC {
		if gotC[i].T != wholeC[i].T || !reflect.DeepEqual(gotC[i].Members, wholeC[i].Members) {
			t.Errorf("cluster %d: got T=%d members=%v, want T=%d members=%v",
				i, gotC[i].T, gotC[i].Members, wholeC[i].T, wholeC[i].Members)
		}
	}
	skip := 0
	for _, u := range gotU {
		skip += len(u)
	}
	wantSkip := 0
	for _, u := range wholeU {
		wantSkip += len(u)
	}
	if skip != wantSkip {
		t.Errorf("undersized members = %d, want %d", skip, wantSkip)
	}
}

func TestClusterComponentPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k = 0 should panic")
		}
	}()
	ClusterComponentProfiled(fig6Graph(), []int32{0}, 0, nil)
}

// TestClusterComponentsAndMerge: the component pool fills exactly the
// entries it is given, each with ClusterComponentProfiled's answer for
// that component, and reports each as a core.component/<i> span when
// ctx carries one. Over every component, MergeClusters reproduces the
// whole-graph clusters in emission order and the undersized groups
// come out in component order, with and without floors.
func TestClusterComponentsAndMerge(t *testing.T) {
	g := multiComponentGraph(t, 900, 5)
	members := g.Components()
	floors := make([]int32, g.NumVertices())
	for v := range floors {
		if v%5 == 0 {
			floors[v] = 7
		}
	}
	const k = 4
	for _, ks := range [][]int32{nil, floors} {
		for _, workers := range []int{0, 1, 2} {
			comps := make([]Component, len(members))
			var todo, rest []int
			for i, ms := range members {
				comps[i].Members = ms
				if i%3 == 1 {
					rest = append(rest, i)
				} else {
					todo = append(todo, i)
				}
			}
			root := trace.New("test")
			ClusterComponents(trace.NewContext(context.Background(), root), g, comps, todo, k, ks, workers)
			root.End()
			spans := map[string]bool{}
			for _, sp := range root.Children() {
				spans[sp.Name()] = true
			}
			if len(spans) != len(todo) {
				t.Errorf("floors=%v workers=%d: %d component spans for %d components", ks != nil, workers, len(spans), len(todo))
			}
			for _, i := range todo {
				if !spans[fmt.Sprintf("core.component/%d", i)] {
					t.Errorf("floors=%v workers=%d: no span for component %d", ks != nil, workers, i)
				}
				wantC, wantU := ClusterComponentProfiled(g, comps[i].Members, k, ks)
				if !reflect.DeepEqual(comps[i].Clusters, wantC) || !reflect.DeepEqual(comps[i].Undersized, wantU) {
					t.Errorf("floors=%v workers=%d: component %d differs from ClusterComponentProfiled", ks != nil, workers, i)
				}
			}
			for _, i := range rest {
				if comps[i].Clusters != nil || comps[i].Undersized != nil {
					t.Errorf("floors=%v workers=%d: component %d outside todo was filled", ks != nil, workers, i)
				}
			}

			ClusterComponents(context.Background(), g, comps, rest, k, ks, workers)
			gotC := MergeClusters(comps)
			wantC, wantU := CentralizedTConnProfiled(g, k, ks)
			if !reflect.DeepEqual(gotC, wantC) {
				t.Errorf("floors=%v workers=%d: merged %d clusters, want %d in emission order",
					ks != nil, workers, len(gotC), len(wantC))
			}
			// Every undersized group is a whole component, so component
			// order is their emission order.
			var gotU [][]int32
			for _, c := range comps {
				gotU = append(gotU, c.Undersized...)
			}
			if len(wantU) == 0 || !reflect.DeepEqual(gotU, wantU) {
				t.Errorf("floors=%v workers=%d: undersized groups in component order = %v, want %v (non-empty)",
					ks != nil, workers, gotU, wantU)
			}
		}
	}
}

func TestClampWorkers(t *testing.T) {
	for _, tc := range []struct {
		n, jobs, want int
	}{
		{3, 10, 3},
		{10, 3, 3},
		{5, 5, 5},
	} {
		if got := clampWorkers(tc.n, tc.jobs); got != tc.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", tc.n, tc.jobs, got, tc.want)
		}
	}
	if got := clampWorkers(0, 100); got < 1 {
		t.Errorf("clampWorkers(0, 100) = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := clampWorkers(-3, 2); got < 1 || got > 2 {
		t.Errorf("n <= 0 must resolve to GOMAXPROCS capped by jobs, got %d", got)
	}
}
