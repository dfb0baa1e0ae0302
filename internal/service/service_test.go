package service

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/epoch"
	"nonexposure/internal/rss"
	"nonexposure/internal/wpg"
)

// uploadsFor derives each user's ranked peer list from a built WPG so the
// server-side reconstruction can be compared against the original graph.
func uploadsFor(g *wpg.Graph) map[int32][]PeerRank {
	out := make(map[int32][]PeerRank, g.NumVertices())
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		var prs []PeerRank
		for _, e := range g.Neighbors(v) {
			prs = append(prs, PeerRank{Peer: e.To, Rank: e.W})
		}
		out[v] = prs
	}
	return out
}

func TestBuildGraphReconstructsWPG(t *testing.T) {
	pts := dataset.GaussianClusters(300, 3, 0.05, 4)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.05, MaxPeers: 6, Model: rss.InverseModel{}})
	rebuilt, err := epoch.BuildGraph(g.NumVertices(), uploadsFor(g))
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", rebuilt.NumEdges(), g.NumEdges())
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if !reflect.DeepEqual(rebuilt.Neighbors(v), g.Neighbors(v)) {
			t.Fatalf("adjacency of %d differs after reconstruction", v)
		}
	}
}

func TestBuildGraphMutualityAndSelfLoops(t *testing.T) {
	uploads := map[int32][]PeerRank{
		0: {{Peer: 1, Rank: 1}, {Peer: 0, Rank: 2}, {Peer: 2, Rank: 3}},
		1: {{Peer: 0, Rank: 2}},
		2: {}, // 2 never ranked 0 back: no edge
	}
	g, err := epoch.BuildGraph(3, uploads)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (only the mutual pair)", g.NumEdges())
	}
	w, ok := g.Weight(0, 1)
	if !ok || w != 1 {
		t.Errorf("weight(0,1) = %d,%v want 1 (min of 1 and 2)", w, ok)
	}
}

func TestServerLifecycleOverTCP(t *testing.T) {
	pts := dataset.GaussianClusters(200, 2, 0.04, 9)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.05, MaxPeers: 8})

	srv, err := New(WithNumUsers(g.NumVertices()), WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Cloak before freeze must fail.
	if _, err := c.CloakV1(0); err == nil || !strings.Contains(err.Error(), "not frozen") {
		t.Fatalf("cloak before freeze: %v", err)
	}

	for user, peers := range uploadsFor(g) {
		if err := c.Upload(user, peers); err != nil {
			t.Fatalf("upload %d: %v", user, err)
		}
	}
	ep, err := c.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Edges != g.NumEdges() || ep.Epoch != 1 || ep.Unchanged {
		t.Errorf("freeze = %+v, want epoch 1 with %d edges", ep, g.NumEdges())
	}

	// First cloak costs the whole population; a member's repeat is free.
	first, err := c.CloakV1(5)
	if err != nil {
		t.Fatal(err)
	}
	cluster := first.Cluster
	if first.Cost != g.NumVertices() {
		t.Errorf("first cloak cost = %d, want %d", first.Cost, g.NumVertices())
	}
	if len(cluster) < 4 {
		t.Errorf("cluster = %v, want >= k members", cluster)
	}
	again, err := c.CloakV1(cluster[0])
	if err != nil {
		t.Fatal(err)
	}
	if again.Cost != 0 || !reflect.DeepEqual(again.Cluster, cluster) {
		t.Errorf("member repeat: cost=%d cluster=%v", again.Cost, again.Cluster)
	}

	// The served clusters must match an in-process anonymizer run.
	reg := core.NewRegistry(g.NumVertices())
	if _, _, err := core.RegisterCentralized(g, 4, reg); err != nil {
		t.Fatal(err)
	}
	want, ok := reg.ClusterOf(5)
	if !ok {
		t.Fatal("reference registry missing user 5")
	}
	if !reflect.DeepEqual(cluster, want.Members) {
		t.Errorf("served cluster %v != reference %v", cluster, want.Members)
	}

	stats, err := c.StatsV1()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Frozen || stats.Users != g.NumVertices() || stats.Clusters == 0 {
		t.Errorf("stats = %+v", stats)
	}

	// Uploads after freeze are accepted as next-epoch input (the epoch
	// pipeline never stops taking uploads); the serving epoch is
	// unchanged until the next rotation.
	if err := c.Upload(0, uploadsFor(g)[0]); err != nil {
		t.Errorf("upload after freeze: %v", err)
	}
	if st, err := c.EpochStatus(); err != nil || st.Epoch != 1 || st.SinceTrigger != 1 {
		t.Errorf("epoch status after post-freeze upload = %+v, %v", st, err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	pts := dataset.GaussianClusters(300, 3, 0.04, 15)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.05, MaxPeers: 8})
	srv, err := New(WithNumUsers(g.NumVertices()), WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Concurrent uploads from many clients.
	uploads := uploadsFor(g)
	var wg sync.WaitGroup
	errCh := make(chan error, len(uploads))
	sem := make(chan struct{}, 16)
	for user, peers := range uploads {
		wg.Add(1)
		go func(user int32, peers []PeerRank) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := Dial(addr.String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			if err := c.Upload(user, peers); err != nil {
				errCh <- err
			}
		}(user, peers)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}

	// Concurrent cloak requests.
	results := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(u int32) {
			results <- c2Cloak(addr.String(), u)
		}(int32(i * 7 % g.NumVertices()))
	}
	for i := 0; i < 20; i++ {
		if err := <-results; err != nil && !strings.Contains(err.Error(), "not enough") {
			t.Fatal(err)
		}
	}
}

func c2Cloak(addr string, user int32) error {
	c, err := Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.CloakV1(user)
	return err
}

func TestServerValidation(t *testing.T) {
	if _, err := New(WithNumUsers(0), WithK(1)); err == nil {
		t.Error("population 0 should error")
	}
	if _, err := New(WithNumUsers(10), WithK(0)); err == nil {
		t.Error("k 0 should error")
	}
	srv, err := New(WithNumUsers(10), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	handle := func(req Request) Envelope {
		req.V = ProtocolVersion
		return srv.HandleEnvelope(context.Background(), req)
	}
	if resp := handle(Request{Op: "bogus"}); resp.OK || resp.Error == "" {
		t.Errorf("unknown op: %+v", resp)
	}
	if resp := handle(Request{Op: OpUpload, User: 99}); resp.OK {
		t.Error("out-of-range user accepted")
	}
	if resp := handle(Request{Op: OpUpload, User: 1, Peers: []PeerRank{{Peer: 99, Rank: 1}}}); resp.OK {
		t.Error("out-of-range peer accepted")
	}
	if resp := handle(Request{Op: OpUpload, User: 1, Peers: []PeerRank{{Peer: 2, Rank: 0}}}); resp.OK {
		t.Error("rank 0 accepted")
	}
	if resp := handle(Request{Op: OpFreeze}); !resp.OK || resp.Epoch.Unchanged {
		t.Errorf("freeze: %+v", resp)
	}
	// Nothing new since: the second freeze builds nothing and says so.
	if resp := handle(Request{Op: OpFreeze}); !resp.OK || !resp.Epoch.Unchanged || resp.Epoch.Builds != 1 {
		t.Errorf("double freeze: %+v, want ok and unchanged after 1 build", resp)
	}
}

func TestServerCloseWithIdleClient(t *testing.T) {
	srv, err := New(WithNumUsers(10), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// The client now sits idle with an open connection; Close must not
	// hang waiting for it.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
}
