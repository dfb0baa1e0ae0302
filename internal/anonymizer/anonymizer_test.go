package anonymizer

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/graph"
	"nonexposure/internal/wpg"
)

func testGraph() *wpg.Graph {
	// Two components: a 6-chain and an isolated pair.
	return wpg.MustFromEdges(8, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 2},
		{U: 6, V: 7, W: 1},
	})
}

var bg = context.Background()

func mustBuild(t *testing.T, g *wpg.Graph, k, workers int) *Server {
	t.Helper()
	s, err := Build(bg, g, k, workers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCloakFirstRequestCostsEveryone: the first served cloak is billed
// one proximity upload per user; every later cloak is a free cache read.
func TestCloakFirstRequestCostsEveryone(t *testing.T) {
	s := mustBuild(t, testGraph(), 3, 0)
	c, cost, err := s.Cloak(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 8 {
		t.Errorf("first request cost = %d, want 8 (all users)", cost)
	}
	if !c.Contains(0) || c.Size() < 3 {
		t.Errorf("cluster = %v", c.Members)
	}
	// Second request: free, same registry.
	c2, cost2, err := s.Cloak(bg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 != 0 {
		t.Errorf("second request cost = %d, want 0", cost2)
	}
	if c2.Size() < 3 {
		t.Errorf("cluster = %v", c2.Members)
	}
	if err := s.Registry().CheckReciprocity(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildMakesCloakFree: Build registers every cluster before any
// request, so cloaking every user twice adds nothing to the registry and
// the whole pass is billed exactly once, one upload per user.
func TestBuildMakesCloakFree(t *testing.T) {
	s := mustBuild(t, testGraph(), 3, 0)
	clusters, assigned := s.Registry().NumClusters(), s.Registry().NumAssigned()
	if clusters == 0 || assigned != 6 {
		t.Fatalf("after Build: %d clusters over %d users, want >0 over 6", clusters, assigned)
	}
	total := 0
	for pass := 0; pass < 2; pass++ {
		for v := int32(0); v < 6; v++ {
			c, cost, err := s.Cloak(bg, v)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Contains(v) || c.Size() < 3 {
				t.Errorf("user %d: cluster = %v", v, c.Members)
			}
			total += cost
		}
	}
	if total != 8 {
		t.Errorf("12 cloaks billed %d messages in all, want 8 (one bill)", total)
	}
	if got, gotA := s.Registry().NumClusters(), s.Registry().NumAssigned(); got != clusters || gotA != assigned {
		t.Errorf("cloaks changed the registry: %d clusters over %d users, want %d over %d", got, gotA, clusters, assigned)
	}
}

func TestCloakReciprocityAcrossMembers(t *testing.T) {
	s := mustBuild(t, testGraph(), 3, 0)
	c, _, err := s.Cloak(bg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Members {
		cm, cost, err := s.Cloak(bg, m)
		if err != nil {
			t.Fatal(err)
		}
		if cm.ID != c.ID || cost != 0 {
			t.Errorf("member %d: cluster %d cost %d, want %d / 0", m, cm.ID, cost, c.ID)
		}
	}
}

// TestCloakUndersizedComponent: a user in a component smaller than k is
// refused, the refusal is not billed, and the bill waits for the first
// served cloak.
func TestCloakUndersizedComponent(t *testing.T) {
	s := mustBuild(t, testGraph(), 3, 0)
	// Users 6,7 form a 2-component: k=3 impossible.
	_, cost, err := s.Cloak(bg, 6)
	if !errors.Is(err, core.ErrInsufficientUsers) {
		t.Errorf("err = %v, want ErrInsufficientUsers", err)
	}
	if cost != 0 {
		t.Errorf("refused cloak cost = %d, want 0", cost)
	}
	if got := s.Registry().NumAssigned(); got != 6 {
		t.Errorf("%d users clustered, want 6 (the pair stays out)", got)
	}
	if _, cost, err := s.Cloak(bg, 0); err != nil || cost != 8 {
		t.Errorf("first served cloak: cost=%d err=%v, want 8/nil", cost, err)
	}
}

func TestCloakValidation(t *testing.T) {
	s := mustBuild(t, testGraph(), 3, 0)
	for _, host := range []int32{-1, 8, 99} {
		if _, _, err := s.Cloak(bg, host); err == nil {
			t.Errorf("unknown user %d should error", host)
		}
	}
	if _, err := Build(bg, testGraph(), 0, 0); err == nil {
		t.Error("Build with k < 1 accepted")
	}
	if _, err := New(bg, testGraph(), 0, nil, 0); err == nil {
		t.Error("New with k < 1 accepted")
	}
}

// TestCloakConcurrentFirstRequests hammers a fresh server with parallel
// first requests (run under -race): every caller must see the same
// cluster, and exactly one served cloak is billed the population cost.
func TestCloakConcurrentFirstRequests(t *testing.T) {
	pts := dataset.GaussianClusters(400, 8, 0.02, 21)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.03, MaxPeers: 8})
	s := mustBuild(t, g, 4, 0)

	const callers = 32
	var (
		wg        sync.WaitGroup
		billed    atomic.Int64
		costTotal atomic.Int64
	)
	clusters := make([]*core.Cluster, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, cost, err := s.Cloak(bg, 0)
			clusters[i], errs[i] = c, err
			if cost > 0 {
				billed.Add(1)
				costTotal.Add(int64(cost))
			}
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if clusters[i] != clusters[0] {
			t.Fatalf("caller %d got cluster %v, caller 0 got %v", i, clusters[i], clusters[0])
		}
	}
	if billed.Load() != 1 {
		t.Errorf("%d callers were billed, want exactly 1", billed.Load())
	}
	if costTotal.Load() != int64(g.NumVertices()) {
		t.Errorf("total billed cost = %d, want %d (one population upload)", costTotal.Load(), g.NumVertices())
	}
	if err := s.Registry().CheckReciprocity(); err != nil {
		t.Fatal(err)
	}
	// A late request stays free and cache-served.
	if _, cost, err := s.Cloak(bg, clusters[0].Members[1]); err != nil || cost != 0 {
		t.Errorf("late request: cost=%d err=%v, want 0/nil", cost, err)
	}
}

// TestCloakParallelMatchesSerialBuild checks the component-parallel
// build yields the same registry as a worker-count-1 build.
func TestCloakParallelMatchesSerialBuild(t *testing.T) {
	pts := dataset.GaussianClusters(300, 6, 0.02, 5)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.03, MaxPeers: 8})
	serial := mustBuild(t, g, 3, 1)
	parallel := mustBuild(t, g, 3, 8)
	sc, pc := serial.Registry().Clusters(), parallel.Registry().Clusters()
	if len(sc) != len(pc) {
		t.Fatalf("clusters: serial %d, parallel %d", len(sc), len(pc))
	}
	for i := range sc {
		if sc[i].T != pc[i].T || !reflect.DeepEqual(sc[i].Members, pc[i].Members) {
			t.Fatalf("cluster %d differs", i)
		}
	}
	if s, p := serial.Registry().NumAssigned(), parallel.Registry().NumAssigned(); s != p {
		t.Errorf("clustered users: serial %d, parallel %d", s, p)
	}
}

// TestBuildMatchesRegisterCentralized: the component-parallel Build over
// a many-component WPG registers exactly what the serial
// core.RegisterCentralized does, cluster for cluster.
func TestBuildMatchesRegisterCentralized(t *testing.T) {
	pts := dataset.GaussianClusters(700, 12, 0.015, 5)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.02, MaxPeers: 8})
	if len(g.Components()) < 4 {
		t.Fatalf("test graph has only %d components, want a multi-component WPG", len(g.Components()))
	}
	serialReg := core.NewRegistry(g.NumVertices())
	serialC, serialSkipped, err := core.RegisterCentralized(g, 6, serialReg)
	if err != nil {
		t.Fatal(err)
	}
	s := mustBuild(t, g, 6, 0)
	parC := s.Registry().Clusters()
	if len(parC) != len(serialC) {
		t.Fatalf("clusters = %d, want %d", len(parC), len(serialC))
	}
	for i := range parC {
		if !reflect.DeepEqual(parC[i].Members, serialC[i].Members) || parC[i].T != serialC[i].T {
			t.Errorf("cluster %d differs from serial registration", i)
		}
	}
	if got, want := s.Registry().NumAssigned(), g.NumVertices()-serialSkipped; got != want {
		t.Errorf("clustered users = %d, want %d", got, want)
	}
	if err := s.Registry().CheckReciprocity(); err != nil {
		t.Fatal(err)
	}
}

func TestCloakMatchesCentralizedAlgorithm(t *testing.T) {
	g := testGraph()
	s := mustBuild(t, g, 2, 0)
	c, _, err := s.Cloak(bg, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.CentralizedTConn(g, 2)
	found := false
	for _, wc := range want {
		if wc.Contains(4) {
			found = true
			if wc.Size() != c.Size() {
				t.Errorf("anonymizer cluster size %d != algorithm %d", c.Size(), wc.Size())
			}
		}
	}
	if !found {
		t.Fatal("reference clustering lost user 4")
	}
}

// TestAdoptInstallsExternalClusters: the incremental epoch rebuild
// computes clusters outside the server and installs them through New
// with the generation's cost; the server must then serve them exactly
// like a built one, and a clustering whose member sets overlap is
// rejected.
func TestAdoptInstallsExternalClusters(t *testing.T) {
	g := testGraph()
	clusters, _ := core.CentralizedTConn(g, 3)
	s, err := New(bg, g, 3, clusters, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Registry().NumClusters(); got != len(clusters) {
		t.Fatalf("%d clusters registered by New, want %d", got, len(clusters))
	}
	c, cost, err := s.Cloak(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 5 {
		t.Errorf("first served cloak cost = %d, want 5 (the adopted clustering's cost)", cost)
	}
	if !c.Contains(0) || c.Size() < 3 {
		t.Errorf("cluster = %v", c.Members)
	}
	if _, cost, err := s.Cloak(bg, 1); err != nil || cost != 0 {
		t.Errorf("second cloak: cost=%d err=%v, want 0/nil", cost, err)
	}
	if err := s.Registry().CheckReciprocity(); err != nil {
		t.Fatal(err)
	}
	twice := append(append([]*core.Cluster(nil), clusters...), clusters...)
	if _, err := New(bg, g, 3, twice, 0); err == nil {
		t.Error("New accepted a user in two clusters")
	}
}
