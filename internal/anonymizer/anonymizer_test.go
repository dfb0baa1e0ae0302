package anonymizer

import (
	"context"
	"errors"
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

func TestCloakFirstRequestCostsEveryone(t *testing.T) {
	s := NewServer(testGraph(), WithK(3))
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

// TestBuildMakesCloakFree is the epoch-pipeline contract: an explicit
// Build (what the background rebuild does before publishing a
// generation) leaves every subsequent Cloak a zero-cost cache read.
func TestBuildMakesCloakFree(t *testing.T) {
	s := NewServer(testGraph(), WithK(3), WithEpoch(7))
	if s.Epoch() != 7 {
		t.Errorf("Epoch = %d, want 7", s.Epoch())
	}
	if err := s.Build(bg); err != nil {
		t.Fatal(err)
	}
	if s.Registry().NumClusters() == 0 {
		t.Fatal("no cluster registered after Build")
	}
	// Build is idempotent.
	if err := s.Build(bg); err != nil {
		t.Fatal(err)
	}
	c, cost, err := s.Cloak(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("post-Build cloak cost = %d, want 0", cost)
	}
	if !c.Contains(0) || c.Size() < 3 {
		t.Errorf("cluster = %v", c.Members)
	}
}

// TestCloakCanceledContextWhileWaiting: a caller waiting for an in-flight
// build must return ctx.Err() when its context dies first.
func TestCloakCanceledContextWhileWaiting(t *testing.T) {
	s := NewServer(testGraph(), WithK(3))
	// Claim the build without running it, so waiters block forever.
	if !s.claimed.CompareAndSwap(false, true) {
		t.Fatal("fresh server already claimed")
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := s.Cloak(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Cloak with dead ctx = %v, want context.Canceled", err)
	}
	if err := s.Build(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Build with dead ctx = %v, want context.Canceled", err)
	}
	// Unblock the latch for cleanliness.
	s.runBuild(bg)
	if _, _, err := s.Cloak(bg, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCloakReciprocityAcrossMembers(t *testing.T) {
	s := NewServer(testGraph(), WithK(3))
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

func TestCloakUndersizedComponent(t *testing.T) {
	s := NewServer(testGraph(), WithK(3))
	// Users 6,7 form a 2-component: k=3 impossible.
	_, _, err := s.Cloak(bg, 6)
	if !errors.Is(err, core.ErrInsufficientUsers) {
		t.Errorf("err = %v, want ErrInsufficientUsers", err)
	}
	if s.Unclusterable() != 2 {
		t.Errorf("Unclusterable = %d, want 2", s.Unclusterable())
	}
}

func TestCloakValidation(t *testing.T) {
	s := NewServer(testGraph(), WithK(3))
	if _, _, err := s.Cloak(bg, 99); err == nil {
		t.Error("unknown user should error")
	}
	if s.K() != 3 {
		t.Errorf("K = %d", s.K())
	}
	defer func() {
		if recover() == nil {
			t.Error("k < 1 should panic")
		}
	}()
	NewServer(testGraph(), WithK(0))
}

// TestCloakConcurrentFirstRequests hammers a fresh server with parallel
// first requests (run under -race): every caller must see the same
// cluster, the one-time clustering must run exactly once, and exactly one
// request is billed the population cost.
func TestCloakConcurrentFirstRequests(t *testing.T) {
	pts := dataset.GaussianClusters(400, 8, 0.02, 21)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.03, MaxPeers: 8})
	s := NewServer(g, WithK(4))

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
	if s.Registry().NumClusters() == 0 {
		t.Error("no cluster registered after a successful first request")
	}
	if err := s.Registry().CheckReciprocity(); err != nil {
		t.Fatal(err)
	}
	// A late request stays free and cache-served.
	if _, cost, err := s.Cloak(bg, clusters[0].Members[1]); err != nil || cost != 0 {
		t.Errorf("post-build request: cost=%d err=%v, want 0/nil", cost, err)
	}
}

// TestCloakParallelMatchesSerialBuild checks the component-parallel first
// build yields the same registry as a worker-count-1 build.
func TestCloakParallelMatchesSerialBuild(t *testing.T) {
	pts := dataset.GaussianClusters(300, 6, 0.02, 5)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.03, MaxPeers: 8})
	serial := NewServer(g, WithK(3), WithWorkers(1))
	parallel := NewServer(g, WithK(3), WithWorkers(8))
	if _, _, err := serial.Cloak(bg, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parallel.Cloak(bg, 0); err != nil {
		t.Fatal(err)
	}
	sc, pc := serial.Registry().Clusters(), parallel.Registry().Clusters()
	if len(sc) != len(pc) {
		t.Fatalf("clusters: serial %d, parallel %d", len(sc), len(pc))
	}
	for i := range sc {
		if sc[i].T != pc[i].T || len(sc[i].Members) != len(pc[i].Members) {
			t.Fatalf("cluster %d differs", i)
		}
		for j := range sc[i].Members {
			if sc[i].Members[j] != pc[i].Members[j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
	if serial.Unclusterable() != parallel.Unclusterable() {
		t.Errorf("unclusterable: serial %d, parallel %d", serial.Unclusterable(), parallel.Unclusterable())
	}
}

func TestCloakMatchesCentralizedAlgorithm(t *testing.T) {
	g := testGraph()
	s := NewServer(g, WithK(2))
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
// computes clusters outside the server and installs them via Adopt;
// the server must then serve them exactly like a built one, and a
// second Adopt (or a Build race) must be rejected by the claim latch.
func TestAdoptInstallsExternalClusters(t *testing.T) {
	g := testGraph()
	clusters, undersized := core.CentralizedTConn(g, 3)
	skipped := 0
	for _, u := range undersized {
		skipped += len(u)
	}
	s := NewServer(g, WithK(3), WithEpoch(5))
	if err := s.Adopt(bg, clusters, skipped); err != nil {
		t.Fatal(err)
	}
	if got := s.Registry().NumClusters(); got != len(clusters) {
		t.Fatalf("%d clusters registered after Adopt, want %d", got, len(clusters))
	}
	if s.Unclusterable() != skipped {
		t.Errorf("Unclusterable = %d, want %d", s.Unclusterable(), skipped)
	}
	c, cost, err := s.Cloak(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("post-Adopt cloak cost = %d, want 0", cost)
	}
	if !c.Contains(0) || c.Size() < 3 {
		t.Errorf("cluster = %v", c.Members)
	}
	if err := s.Registry().CheckReciprocity(); err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(bg, clusters, skipped); err == nil {
		t.Error("second Adopt accepted")
	}
	// Adopting into a server that already built must fail too.
	built := NewServer(g, WithK(3))
	if err := built.Build(bg); err != nil {
		t.Fatal(err)
	}
	if err := built.Adopt(bg, clusters, skipped); err == nil {
		t.Error("Adopt after Build accepted")
	}
}
