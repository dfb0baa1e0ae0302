package p2p

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/geo"
	"nonexposure/internal/graph"
	"nonexposure/internal/wpg"
)

func testGraphAndLocs(n int, seed int64) (*wpg.Graph, []geo.Point) {
	locs := dataset.GaussianClusters(n, 3, 0.05, seed)
	g := wpg.Build(locs, wpg.BuildParams{Delta: 0.08, MaxPeers: 8})
	return g, locs
}

func TestNetworkAdjacencyRoundTrip(t *testing.T) {
	g, locs := testGraphAndLocs(50, 1)
	net, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	src := net.Source(0)
	for v := int32(0); v < 10; v++ {
		got := src.Adjacency(v)
		want := g.Neighbors(v)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("adjacency of %d over network differs", v)
		}
	}
	if src.Err() != nil {
		t.Fatalf("unexpected transport error: %v", src.Err())
	}
	// 9 remote fetches (host's own is local).
	if net.RoundTrips() != 9 {
		t.Errorf("RoundTrips = %d, want 9", net.RoundTrips())
	}
	if net.Lost() != 0 {
		t.Errorf("Lost = %d on a lossless network", net.Lost())
	}
}

func TestNetworkValidation(t *testing.T) {
	g, locs := testGraphAndLocs(10, 2)
	if _, err := NewNetwork(g, locs[:5], Config{}); err == nil {
		t.Error("mismatched locations should error")
	}
	if _, err := NewNetwork(g, locs, Config{LossRate: 1.5}); err == nil {
		t.Error("invalid loss rate should error")
	}
	net, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := net.Request(99, Message{Kind: KindAdjRequest}); err == nil {
		t.Error("request to unknown node should error")
	}
}

func TestDistributedClusteringOverNetworkMatchesLocal(t *testing.T) {
	g, locs := testGraphAndLocs(200, 3)
	net, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	rng := rand.New(rand.NewSource(5))
	regNet := core.NewRegistry(g.NumVertices())
	regLoc := core.NewRegistry(g.NumVertices())
	for i := 0; i < 20; i++ {
		host := int32(rng.Intn(g.NumVertices()))
		cNet, statsNet, errNet := net.DistributedTConn(host, 5, regNet)
		cLoc, statsLoc, errLoc := core.DistributedTConn(core.GraphSource{G: g}, host, 5, regLoc)
		if (errNet != nil) != (errLoc != nil) {
			t.Fatalf("host %d: error mismatch %v vs %v", host, errNet, errLoc)
		}
		if errNet != nil {
			continue
		}
		if !reflect.DeepEqual(cNet.Members, cLoc.Members) {
			t.Fatalf("host %d: network cluster %v != local %v", host, cNet.Members, cLoc.Members)
		}
		if statsNet.Involved != statsLoc.Involved {
			t.Fatalf("host %d: involved %d != %d", host, statsNet.Involved, statsLoc.Involved)
		}
	}
	// Logical message accounting: the wire round trips must equal the sum
	// of involved users over all fresh runs (adjacency fetches only here).
	if err := regNet.CheckReciprocity(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripsEqualInvolvedUsers(t *testing.T) {
	g, locs := testGraphAndLocs(150, 7)
	net, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	reg := core.NewRegistry(g.NumVertices())
	_, stats, err := net.DistributedTConn(3, 4, reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.RoundTrips(); got != uint64(stats.Involved) {
		t.Errorf("round trips %d != involved users %d: the paper's accounting should match the wire",
			got, stats.Involved)
	}
	if net.Sent() != 2*net.RoundTrips() {
		t.Errorf("lossless wire: Sent=%d, want 2×RoundTrips=%d", net.Sent(), 2*net.RoundTrips())
	}
}

func TestBoundRectOverNetwork(t *testing.T) {
	g, locs := testGraphAndLocs(120, 9)
	net, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	reg := core.NewRegistry(g.NumVertices())
	host := int32(11)
	c, _, err := net.DistributedTConn(host, 6, reg)
	if err != nil {
		t.Fatal(err)
	}
	scale := core.DefaultRectScale(c.Size(), g.NumVertices())
	multiRound := false // some member agreed after round 1, so exposure is compared
	for _, pol := range []core.IncrementPolicy{
		core.NewSecureIncrement(1, 1000),
		core.LinearIncrement{Step: 0.05},
		core.ExpIncrement{Init: 0.25},
	} {
		before := net.RoundTrips()
		res, err := net.BoundRect(host, c.Members, scale, pol, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range c.Members {
			if !res.Rect.Contains(locs[m]) {
				t.Errorf("%s: member %d at %v outside network-bounded rect %v", pol.Name(), m, locs[m], res.Rect)
			}
		}

		// The same protocol run locally must agree exactly: rectangle,
		// rounds, messages, exposure, and no degraded member.
		local, err := core.BoundRect(locs, c.Members, locs[host], scale, pol, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, local) {
			t.Errorf("%s: network result %+v != local %+v", pol.Name(), res, local)
		}
		multiRound = multiRound || local.MeanExposure > 0
		// One probe round trip per remote vote. The host votes locally,
		// and its zero offset agrees in the first round of each direction.
		if got, want := net.RoundTrips()-before, uint64(res.Messages)-4; got != want {
			t.Errorf("%s: %d probe round trips, want %d (messages less the host's 4 votes)", pol.Name(), got, want)
		}
	}
	if !multiRound {
		t.Error("no policy took a second round: MeanExposure was never exercised")
	}
}

func TestLossyNetworkStillCorrectWithRetries(t *testing.T) {
	g, locs := testGraphAndLocs(150, 13)
	lossless, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lossless.Close()
	lossy, err := NewNetwork(g, locs, Config{LossRate: 0.3, MaxRetries: 40, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()

	regA := core.NewRegistry(g.NumVertices())
	regB := core.NewRegistry(g.NumVertices())
	for _, host := range []int32{0, 40, 90} {
		cA, _, errA := lossless.DistributedTConn(host, 5, regA)
		cB, _, errB := lossy.DistributedTConn(host, 5, regB)
		if (errA != nil) != (errB != nil) {
			t.Fatalf("host %d: error mismatch %v vs %v", host, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !reflect.DeepEqual(cA.Members, cB.Members) {
			t.Fatalf("host %d: lossy result differs: %v vs %v", host, cA.Members, cB.Members)
		}
	}
	if lossy.Lost() == 0 {
		t.Error("loss injection produced no losses at rate 0.3")
	}
	// The lossy wire must have carried strictly more transmissions per
	// round trip than the lossless one.
	if float64(lossy.Sent()) <= 2*float64(lossy.RoundTrips()) {
		t.Errorf("lossy Sent=%d should exceed 2×RoundTrips=%d", lossy.Sent(), 2*lossy.RoundTrips())
	}
}

func TestUnreachablePeerSurfacesError(t *testing.T) {
	// With 100% effective loss (rate just under 1 and zero retries) every
	// remote request fails; the run must degrade, not hang.
	g := wpg.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1},
	})
	locs := make([]geo.Point, 6)
	for i := range locs {
		locs[i] = geo.Point{X: float64(i) / 10, Y: 0.5}
	}
	net, err := NewNetwork(g, locs, Config{LossRate: 0.999999, MaxRetries: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	reg := core.NewRegistry(6)
	_, _, err = net.DistributedTConn(0, 3, reg)
	if err == nil {
		t.Fatal("expected a transport or clustering error on a dead network")
	}
	if !errors.Is(err, ErrUnreachable) && !errors.Is(err, core.ErrInsufficientUsers) {
		t.Errorf("err = %v, want unreachable or insufficient users", err)
	}
}

func TestConcurrentHostsOverNetwork(t *testing.T) {
	// Multiple hosts cloak concurrently; the registry must stay a valid
	// partition (run with -race to check the transport too).
	g, locs := testGraphAndLocs(300, 21)
	net, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	reg := core.NewRegistry(g.NumVertices())
	hosts := []int32{5, 50, 120, 200, 280}
	done := make(chan error, len(hosts))
	for _, h := range hosts {
		go func(h int32) {
			_, _, err := net.DistributedTConn(h, 4, reg)
			if errors.Is(err, core.ErrInsufficientUsers) {
				err = nil
			}
			// Concurrent runs may race to register overlapping clusters;
			// losing the race is acceptable, corruption is not.
			if err != nil && !errors.Is(err, ErrUnreachable) {
				err = nil
			}
			done <- err
		}(h)
	}
	for range hosts {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.CheckReciprocity(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownMessageKindGetsEmptyReply(t *testing.T) {
	g, locs := testGraphAndLocs(10, 30)
	net, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rep, err := net.Request(3, Message{From: 0, Kind: Kind(99)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 3 || rep.To != 0 {
		t.Errorf("reply routing wrong: %+v", rep)
	}
	if rep.Agree || rep.Adjacency != nil {
		t.Errorf("unknown kind should produce an empty reply: %+v", rep)
	}
}

func TestBoundProbeDirections(t *testing.T) {
	// One node at a known offset from the anchor; probe each direction
	// with bounds straddling the true offset.
	g, locs := testGraphAndLocs(5, 31)
	locs[2] = locs[0] // make node 2 share the anchor exactly
	locs[2].X += 0.125
	locs[2].Y -= 0.25
	net, err := NewNetwork(g, locs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	anchor := locs[0]
	cases := []struct {
		dir   core.Direction
		bound float64
		agree bool
	}{
		{core.DirXPlus, 0.2, true},
		{core.DirXPlus, 0.1, false},
		{core.DirXMinus, 0.0, true}, // node is to the right: -x offset negative
		{core.DirYPlus, 0.0, true},  // node is below: +y offset negative
		{core.DirYMinus, 0.3, true},
		{core.DirYMinus, 0.2, false},
	}
	for _, tc := range cases {
		rep, err := net.Request(2, Message{
			From: 0, Kind: KindBoundProbe, Dir: tc.dir, Anchor: anchor, Bound: tc.bound,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Agree != tc.agree {
			t.Errorf("dir %d bound %v: agree=%v want %v", tc.dir, tc.bound, rep.Agree, tc.agree)
		}
	}
}
