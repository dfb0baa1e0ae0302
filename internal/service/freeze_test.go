package service

import (
	"context"
	"testing"
	"time"

	"nonexposure/internal/epoch"
)

// TestFreezeAnswersItsOwnEpoch: a trigger landing while a freeze's
// epoch builds queues a second build behind it, which may publish
// before the freeze replies. The freeze must still answer with its own
// epoch, taken from the generation its rotation built, not with
// whatever is serving by then.
func TestFreezeAnswersItsOwnEpoch(t *testing.T) {
	const n, ring = 20000, 50
	ctx := context.Background()
	for attempt := 0; attempt < 3; attempt++ {
		srv, err := New(WithNumUsers(n), WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		mgr := srv.Manager()
		reqs := ringUploads(n, ring)
		if _, err := mgr.UploadBatch(ctx, reqs); err != nil {
			t.Fatal(err)
		}

		resp := make(chan Envelope, 1)
		go func() { resp <- srv.HandleEnvelope(ctx, Request{V: ProtocolVersion, Op: OpFreeze}) }()
		for mgr.Status().Pending == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		// Queue a second epoch behind the freeze's while it builds.
		swapped := reqs[0]
		swapped.Peers = []epoch.RankedPeer{{Peer: swapped.Peers[0].Peer, Rank: 2}, {Peer: swapped.Peers[1].Peer, Rank: 1}}
		if err := mgr.Upload(ctx, swapped); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Rotate(ctx); err != nil {
			t.Fatal(err)
		}
		landed := mgr.Current() == nil
		got := <-resp
		if err := mgr.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if !got.OK || got.Epoch == nil || got.Epoch.Epoch != 1 {
			t.Fatalf("freeze with a trigger queued behind it: %+v, want ok epoch 1", got)
		}
		if landed {
			return
		}
		t.Logf("attempt %d: the freeze's build finished before the second trigger; retrying", attempt)
	}
	t.Fatal("no attempt landed a trigger inside the freeze's build")
}

// ringUploads splits n users into mutual rings of ring users each, one
// upload per user: a population whose build takes long enough to land
// requests inside it.
func ringUploads(n, ring int) []epoch.UploadRequest {
	reqs := make([]epoch.UploadRequest, n)
	for u := range reqs {
		base, i := u/ring*ring, u%ring
		reqs[u] = epoch.UploadRequest{User: int32(u), Peers: []epoch.RankedPeer{
			{Peer: int32(base + (i+1)%ring), Rank: 1},
			{Peer: int32(base + (i+ring-1)%ring), Rank: 2},
		}}
	}
	return reqs
}

// TestNothingNewAnswersUnchanged pins the typed no-op. A freeze sent
// right after an async rotate finds nothing new to build: it must wait
// for the rotate's epoch to publish and then answer ok with that epoch
// and "unchanged":true, not fail. A second freeze, and a rotate with
// nothing new, answer the same way without building anything.
func TestNothingNewAnswersUnchanged(t *testing.T) {
	const n, ring = 20000, 50
	srv, err := New(WithNumUsers(n), WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := srv.Manager().UploadBatch(context.Background(), ringUploads(n, ring)); err != nil {
		t.Fatal(err)
	}

	rot, err := c.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if rot.Epoch != 1 || rot.Unchanged {
		t.Fatalf("first rotate = %+v, want epoch 1 assigned", rot)
	}
	frozen, err := c.Freeze()
	if err != nil {
		t.Fatalf("freeze after an async rotate: %v", err)
	}
	if !frozen.Unchanged || frozen.Epoch != 1 || !frozen.Published || frozen.Pending != 0 || frozen.Builds != 1 {
		t.Fatalf("freeze after an async rotate = %+v, want epoch 1 published, unchanged, nothing pending", frozen)
	}
	if g := srv.Manager().Current(); g == nil || g.Epoch != 1 {
		t.Fatalf("freeze answered before epoch 1 was serving (current %v)", g)
	}

	for _, step := range []struct {
		name string
		call func() (*EpochPayload, error)
	}{{"second freeze", c.Freeze}, {"no-op rotate", c.Rotate}} {
		p, err := step.call()
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if !p.Unchanged || p.Epoch != frozen.Epoch || p.Builds != frozen.Builds {
			t.Fatalf("%s = %+v, want unchanged epoch %d after %d builds", step.name, p, frozen.Epoch, frozen.Builds)
		}
	}
}
