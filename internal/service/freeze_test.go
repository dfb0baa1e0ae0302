package service

import (
	"context"
	"testing"
	"time"

	"nonexposure/internal/epoch"
)

// TestFreezeSurvivesHistoryTrim is the regression test for a freeze
// that used to look its own epoch up in History after Sync: a trigger
// landing while the freeze's epoch built made Sync wait for that build
// too, and with WithHistoryLimit(1) the second build evicted the
// freeze's generation ("epoch 1 missing from history"). The freeze must
// answer with its own epoch whatever queues behind it.
func TestFreezeSurvivesHistoryTrim(t *testing.T) {
	const n, ring = 20000, 50
	ctx := context.Background()
	for attempt := 0; attempt < 3; attempt++ {
		srv, err := New(WithNumUsers(n), WithK(5), WithEpochOptions(epoch.WithHistoryLimit(1)))
		if err != nil {
			t.Fatal(err)
		}
		mgr := srv.Manager()
		reqs := make([]epoch.UploadRequest, n)
		for u := range reqs {
			base, i := u/ring*ring, u%ring
			reqs[u] = epoch.UploadRequest{User: int32(u), Peers: []epoch.RankedPeer{
				{Peer: int32(base + (i+1)%ring), Rank: 1},
				{Peer: int32(base + (i+ring-1)%ring), Rank: 2},
			}}
		}
		if _, err := mgr.UploadBatch(ctx, reqs); err != nil {
			t.Fatal(err)
		}

		resp := make(chan Response, 1)
		go func() { resp <- srv.Handle(Request{Op: OpFreeze}) }()
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
		if !got.OK || got.Epoch != 1 {
			t.Fatalf("freeze with a trigger queued behind it: %+v, want ok epoch 1", got)
		}
		if landed {
			return
		}
		t.Logf("attempt %d: the freeze's build finished before the second trigger; retrying", attempt)
	}
	t.Fatal("no attempt landed a trigger inside the freeze's build")
}
