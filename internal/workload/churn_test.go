package workload

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/metrics"
)

// TestTallyRecognizesBothSubKRefusals pins the one sub-k check: the
// sentinel wrapped in process and its text relayed over the wire (as a
// coordinator relays a shard's refusal) both count as unclusterable,
// and anything else is a hard failure with the first one kept.
func TestTallyRecognizesBothSubKRefusals(t *testing.T) {
	inProcess := fmt.Errorf("%w: user 3 is in a component smaller than k=5", core.ErrInsufficientUsers)
	relayed := errors.New(inProcess.Error())
	hard1, hard2 := errors.New("cluster: shard 1: connection refused"), errors.New("epoch: not ready")

	var tl Tally
	for _, err := range []error{nil, inProcess, relayed, hard1, nil, hard2} {
		tl.Add(err)
	}
	want := Tally{Served: 2, Unclusterable: 2, Failed: 2, Err: hard1}
	if tl != want {
		t.Fatalf("tally = %+v, want %+v", tl, want)
	}

	var merged Tally
	merged.Merge(Tally{Served: 1})
	merged.Merge(tl)
	merged.Merge(Tally{Failed: 1, Err: hard2})
	if want := (Tally{Served: 3, Unclusterable: 2, Failed: 3, Err: hard1}); merged != want {
		t.Fatalf("merged = %+v, want %+v", merged, want)
	}
	if merged.Total() != 8 {
		t.Fatalf("total = %d, want 8", merged.Total())
	}
}

// TestReplayCallsEveryHostOnce checks the worker split: every host is
// cloaked exactly once and timed once, whatever the worker count, so
// the tally does not depend on it.
func TestReplayCallsEveryHostOnce(t *testing.T) {
	hosts := make([]int32, 103)
	for i := range hosts {
		hosts[i] = int32(i)
	}
	for _, workers := range []int{1, 2, 4, 7, 103, 150} {
		var mu sync.Mutex
		calls := make(map[int32]int)
		rm := metrics.NewRequestMetrics()
		tl := Replay(hosts, workers, rm, func(h int32) error {
			mu.Lock()
			calls[h]++
			mu.Unlock()
			if h%3 == 0 {
				return core.ErrInsufficientUsers
			}
			return nil
		})
		if want := (Tally{Served: 68, Unclusterable: 35}); tl != want {
			t.Errorf("workers=%d: tally = %+v, want %+v", workers, tl, want)
		}
		for _, h := range hosts {
			if calls[h] != 1 {
				t.Fatalf("workers=%d: host %d cloaked %d times", workers, h, calls[h])
			}
		}
		if got := rm.Snapshot().Total; got != uint64(len(hosts)) {
			t.Errorf("workers=%d: %d cloaks timed, want %d", workers, got, len(hosts))
		}
	}
}

// TestPopulationTick checks the churn tick: the movers are
// max(1, ⌊frac·n⌋) distinct users, and one seed replays the same
// positions and movers.
func TestPopulationTick(t *testing.T) {
	const n = 400
	delta := dataset.DeltaFor(n)
	a, err := NewPopulation(n, delta, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPopulation(n, delta, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != n || len(a.Users()) != n || a.Users()[n-1] != n-1 {
		t.Fatalf("population of %d, users %d", a.N(), len(a.Users()))
	}
	for tick, frac := range []float64{0.1, 0.001, 1} {
		ga, ma := a.Tick(frac)
		gb, mb := b.Tick(frac)
		want := max(int(frac*n), 1)
		if len(ma) != want {
			t.Fatalf("tick %d: %d movers, want %d", tick, len(ma), want)
		}
		seen := make(map[int32]bool)
		for _, u := range ma {
			if u < 0 || u >= n || seen[u] {
				t.Fatalf("tick %d: mover %d repeated or out of range", tick, u)
			}
			seen[u] = true
		}
		if !reflect.DeepEqual(ma, mb) || !reflect.DeepEqual(a.Model.Positions(), b.Model.Positions()) {
			t.Fatalf("tick %d: same seed diverged", tick)
		}
		if ga.NumEdges() != gb.NumEdges() {
			t.Fatalf("tick %d: graphs of %d and %d edges", tick, ga.NumEdges(), gb.NumEdges())
		}
		for _, u := range ma {
			if !reflect.DeepEqual(Peers(ga, u), Peers(gb, u)) {
				t.Fatalf("tick %d: user %d uploads differ", tick, u)
			}
		}
	}
}

// TestPeersMirrorsTheWPG checks the upload a device derives: its WPG
// neighbours with their ranks, nil for an isolated user.
func TestPeersMirrorsTheWPG(t *testing.T) {
	pop, err := NewPopulation(300, dataset.DeltaFor(300), 4)
	if err != nil {
		t.Fatal(err)
	}
	g := pop.Graph()
	for _, v := range pop.Users() {
		peers, nbrs := Peers(g, v), g.Neighbors(v)
		if len(nbrs) == 0 {
			if peers != nil {
				t.Fatalf("isolated user %d uploads %v, want nil", v, peers)
			}
			continue
		}
		if len(peers) != len(nbrs) {
			t.Fatalf("user %d: %d peers for %d neighbours", v, len(peers), len(nbrs))
		}
		for i, e := range nbrs {
			if peers[i].Peer != e.To || peers[i].Rank != e.W {
				t.Fatalf("user %d peer %d = %+v, neighbour %+v", v, i, peers[i], e)
			}
		}
	}
}
