package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nonexposure/internal/graph"
	"nonexposure/internal/wpg"
)

func TestProfileIsDefault(t *testing.T) {
	if !(Profile{}).IsDefault() {
		t.Error("zero Profile should be default")
	}
	for _, p := range []Profile{
		{K: 3},
		{MaxArea: 0.5},
		{MaxStaleness: time.Second},
	} {
		if p.IsDefault() {
			t.Errorf("%+v should not be default", p)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Profile
		maxK int
		ok   bool
	}{
		{"default", Profile{}, 100, true},
		{"k-in-range", Profile{K: 50}, 100, true},
		{"k-at-population", Profile{K: 100}, 100, true},
		{"k-over-population", Profile{K: 101}, 100, false},
		{"k-unbounded", Profile{K: 1 << 20}, 0, true},
		{"negative-k", Profile{K: -1}, 100, false},
		{"negative-area", Profile{MaxArea: -0.1}, 100, false},
		{"nan-area", Profile{MaxArea: math.NaN()}, 100, false},
		{"inf-area", Profile{MaxArea: math.Inf(1)}, 100, false},
		{"negative-staleness", Profile{MaxStaleness: -time.Second}, 100, false},
		{"full", Profile{K: 7, MaxArea: 2.5, MaxStaleness: time.Minute}, 100, true},
	} {
		err := tc.p.Validate(tc.maxK)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

func TestProfileEffectiveK(t *testing.T) {
	if got := (Profile{}).EffectiveK(5); got != 5 {
		t.Errorf("default EffectiveK(5) = %d, want 5", got)
	}
	if got := (Profile{K: 3}).EffectiveK(5); got != 5 {
		t.Errorf("weaker profile must be absorbed by service k: got %d, want 5", got)
	}
	if got := (Profile{K: 9}).EffectiveK(5); got != 9 {
		t.Errorf("stronger profile must win: got %d, want 9", got)
	}
}

// Uniform profiles must be invisible: nil floors, all-zero floors, and
// floors at or below k all reproduce CentralizedTConn bit-for-bit.
func TestProfiledUniformBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *wpg.Graph
		k    int
	}{
		{"fig6-k2", fig6Graph(), 2},
		{"fig6-k5", fig6Graph(), 5},
		{"blobs-k4", multiComponentGraph(t, 600, 7), 4},
		{"blobs-k10", multiComponentGraph(t, 900, 11), 10},
	} {
		wantC, wantU := CentralizedTConn(tc.g, tc.k)
		n := tc.g.NumVertices()
		zero := make([]int32, n)
		atK := make([]int32, n)
		below := make([]int32, n)
		for i := range atK {
			atK[i] = int32(tc.k)
			below[i] = int32(i % tc.k) // every floor strictly below k
		}
		for name, ks := range map[string][]int32{
			"nil": nil, "zero": zero, "at-k": atK, "below-k": below,
		} {
			gotC, gotU := CentralizedTConnProfiled(tc.g, tc.k, ks)
			if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotU, wantU) {
				t.Errorf("%s ks=%s: profiled result differs from uniform", tc.name, name)
			}
		}
	}
}

// Heterogeneous floors: every cluster must be at least as large as the
// maximum effective floor over its members, every vertex must land in
// exactly one cluster or undersized group, and undersized groups must
// genuinely fail their own demand.
func TestProfiledClustersSatisfyMaxKi(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := multiComponentGraph(t, 400+int(seed)*17, seed)
		n := g.NumVertices()
		k := 2 + int(seed%4)
		ks := make([]int32, n)
		for i := range ks {
			if rng.Intn(4) == 0 { // a quarter of users demand more
				ks[i] = int32(k + 1 + rng.Intn(2*k))
			}
		}
		kOf := func(v int32) int {
			if int(ks[v]) > k {
				return int(ks[v])
			}
			return k
		}
		clusters, undersized := CentralizedTConnProfiled(g, k, ks)
		seen := make([]bool, n)
		for _, c := range clusters {
			need := k
			for _, m := range c.Members {
				if seen[m] {
					t.Fatalf("seed %d: vertex %d in two groups", seed, m)
				}
				seen[m] = true
				if kv := kOf(m); kv > need {
					need = kv
				}
			}
			if len(c.Members) < need {
				t.Errorf("seed %d: cluster %d has %d members, needs %d (max k_i violated)",
					seed, c.ID, len(c.Members), need)
			}
		}
		for _, u := range undersized {
			need := k
			for _, m := range u {
				if seen[m] {
					t.Fatalf("seed %d: vertex %d in two groups", seed, m)
				}
				seen[m] = true
				if kv := kOf(m); kv > need {
					need = kv
				}
			}
			if len(u) >= need {
				t.Errorf("seed %d: undersized group of %d satisfies its own demand %d",
					seed, len(u), need)
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: vertex %d unassigned", seed, v)
			}
		}
	}
}

func TestProfiledParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := multiComponentGraph(t, 500, 100+seed)
		n := g.NumVertices()
		k := 3
		rng := rand.New(rand.NewSource(seed))
		ks := make([]int32, n)
		for i := range ks {
			if rng.Intn(3) == 0 {
				ks[i] = int32(k + rng.Intn(6))
			}
		}
		wantC, wantU := CentralizedTConnProfiled(g, k, ks)
		for _, workers := range []int{0, 1, 2, 7} {
			gotC, gotU := CentralizedTConnParallelProfiled(g, k, ks, workers)
			if !reflect.DeepEqual(gotC, wantC) || !reflect.DeepEqual(gotU, wantU) {
				t.Errorf("seed %d workers=%d: parallel profiled differs from serial", seed, workers)
			}
		}
	}
}

// A demanding vertex in a component smaller than its floor freezes the
// whole component into one undersized group: no removal adjacent to it
// can ever be safe, and the shard shortcut must agree with the full
// algorithm.
func TestProfiledUndersizedComponentShortcut(t *testing.T) {
	// A 4-chain with k=2 normally splits into two pairs.
	g := wpg.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 9}, {U: 2, V: 3, W: 1},
	})
	baseC, _ := CentralizedTConn(g, 2)
	if len(baseC) != 2 {
		t.Fatalf("baseline: got %d clusters, want 2", len(baseC))
	}
	// Vertex 3 demanding k_i=5 > component size: everything undersized.
	ks := []int32{0, 0, 0, 5}
	c, u := CentralizedTConnProfiled(g, 2, ks)
	if len(c) != 0 || len(u) != 1 || len(u[0]) != 4 {
		t.Fatalf("demanding vertex: got %d clusters %v undersized, want whole component undersized", len(c), u)
	}
	sc, su := ClusterComponentProfiled(g, []int32{0, 1, 2, 3}, 2, ks)
	if !reflect.DeepEqual(sc, c) || !reflect.DeepEqual(su, u) {
		t.Errorf("shard shortcut disagrees with full algorithm: %v / %v vs %v / %v", sc, su, c, u)
	}
	// Vertex 3 demanding k_i=4 = component size: one cluster of 4.
	ks[3] = 4
	c, u = CentralizedTConnProfiled(g, 2, ks)
	if len(c) != 1 || len(u) != 0 || len(c[0].Members) != 4 {
		t.Fatalf("k_i = component size: got %v / %v, want one cluster of 4", c, u)
	}
}

// The kNN baseline's stop condition must also honor joined members'
// floors, and nil/zero floors must leave it bit-identical.
func TestKNNClusterProfiled(t *testing.T) {
	g := fig6Graph()
	n := g.NumVertices()

	base, _, err := KNNCluster(GraphSource{G: g}, 0, 2, NewRegistry(n), KNNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same, _, err := KNNCluster(GraphSource{G: g}, 0, 2, NewRegistry(n), KNNOptions{Ks: make([]int32, n)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Members, same.Members) || base.T != same.T {
		t.Errorf("zero floors changed the kNN cluster: %v vs %v", same.Members, base.Members)
	}

	ks := make([]int32, n)
	ks[0] = int32(len(base.Members) + 2) // host demands more than plain kNN gathered
	grown, _, err := KNNCluster(GraphSource{G: g}, 0, 2, NewRegistry(n), KNNOptions{Ks: ks})
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Members) < int(ks[0]) {
		t.Errorf("profiled kNN cluster has %d members, host demands %d", len(grown.Members), ks[0])
	}
	// The floor may also arrive via a joining member, not the host.
	ks2 := make([]int32, n)
	ks2[base.Members[1]] = int32(len(base.Members) + 1)
	grown2, _, err := KNNCluster(GraphSource{G: g}, 0, 2, NewRegistry(n), KNNOptions{Ks: ks2})
	if err != nil {
		t.Fatal(err)
	}
	need := 2
	for _, m := range grown2.Members {
		if int(ks2[m]) > need {
			need = int(ks2[m])
		}
	}
	if len(grown2.Members) < need {
		t.Errorf("joining member's floor violated: %d members, need %d", len(grown2.Members), need)
	}
}
