package cluster

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// TestCoordinatorWireProtocol drives the coordinator through its TCP
// front-end with a stock service.Client: a cluster must be a drop-in
// replacement for one cloakd on both protocol versions.
func TestCoordinatorWireProtocol(t *testing.T) {
	n, k := 30, 2
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	cm := metrics.NewClusterMetrics()
	coord := startCluster(t, n, k, 2, keys, cm)
	addr, err := coord.Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := service.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// A straddling triangle (14,15,16) plus a shard-local pair (2,3).
	mutual := func(u int32, vs ...int32) {
		var peers []service.PeerRank
		for i, v := range vs {
			peers = append(peers, service.PeerRank{Peer: v, Rank: int32(i + 1)})
		}
		if err := c.Upload(u, peers); err != nil {
			t.Fatalf("upload %d: %v", u, err)
		}
	}
	mutual(14, 15, 16)
	mutual(15, 14, 16)
	mutual(16, 14, 15)
	mutual(2, 3)
	mutual(3, 2)

	edges, err := c.Freeze()
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	if edges != 4 {
		t.Fatalf("freeze reported %d edges, want 4 (triangle 3 + pair 1)", edges)
	}

	// v0 cloak.
	cluster, _, err := c.Cloak(15)
	if err != nil {
		t.Fatalf("cloak: %v", err)
	}
	if len(cluster) != 3 {
		t.Fatalf("cloak(15) = %v, want the triangle", cluster)
	}
	// v1 cloak for a user in no component.
	if _, err := c.CloakV1(9); err == nil {
		t.Fatal("cloak of an unknown user succeeded")
	}

	// v1 epoch + stats aggregates.
	ep, err := c.EpochStatus()
	if err != nil {
		t.Fatalf("epoch: %v", err)
	}
	if ep.Epoch != 1 || !ep.Published {
		t.Fatalf("epoch payload = %+v, want cluster epoch 1 published", ep)
	}
	st, err := c.StatsV1()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Users != n || st.Uploads != 5 || !st.Frozen {
		t.Fatalf("stats payload = %+v, want users=%d uploads=5 frozen", st, n)
	}
	// v1 rotate with nothing new: shards answer "no new uploads", the
	// coordinator still advances its rotation count.
	ep2, err := c.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if ep2.Epoch != 2 {
		t.Fatalf("rotate epoch = %d, want 2", ep2.Epoch)
	}

	snap := cm.Snapshot()
	if snap.Shards != 2 || snap.RoutedTotal == 0 || snap.Rotations != 2 {
		t.Fatalf("cluster metrics %s: want 2 shards, routed ops, 2 rotations", snap)
	}
	if snap.BorderReplays == 0 {
		t.Fatal("the straddling triangle produced no border replays")
	}
	if snap.Batches == 0 || snap.BatchedOps == 0 {
		t.Fatalf("cluster metrics %s: ordered forwards never batched", snap)
	}

	// The coordinator front-end also accepts upload_batch (v1 only) and
	// relays the per-entry routing, including mid-batch rejection.
	accepted, err := c.UploadBatch([]service.UploadEntry{
		{User: 20, Peers: []service.PeerRank{{Peer: 21, Rank: 1}}},
		{User: 21, Peers: []service.PeerRank{{Peer: 20, Rank: 1}}},
	})
	if err != nil || accepted != 2 {
		t.Fatalf("front-end batch = %d, %v", accepted, err)
	}
	accepted, err = c.UploadBatch([]service.UploadEntry{
		{User: 22, Peers: []service.PeerRank{{Peer: 20, Rank: 1}}},
		{User: 99}, // out of range at the coordinator
	})
	if err == nil || accepted != 1 {
		t.Fatalf("front-end partial batch = %d, %v; want 1 with an error", accepted, err)
	}
	if _, err := c.Rotate(); err != nil {
		t.Fatal(err)
	}
	cl, err := c.CloakV1(20)
	if err != nil {
		t.Fatalf("cloak after front-end batch: %v", err)
	}
	if len(cl.Cluster) != 2 {
		t.Fatalf("cloak(20) = %v, want the batched pair", cl.Cluster)
	}
}

// TestCoordinatorCloseWithOpenClients is the regression test for Close
// hanging while a client connection stays open: cloakd -coordinator
// calls Close on Ctrl-C whatever its clients are doing. It also pins
// that a malformed line is answered, counted as "malformed", and does
// not end the connection — as on a shard.
func TestCoordinatorCloseWithOpenClients(t *testing.T) {
	coord := startCluster(t, 10, 2, 2, nil, nil)
	addr, err := coord.Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	idle, err := service.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(raw)
	for _, line := range []string{"not json", `{"op":"ping"}`} {
		if _, err := raw.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("no reply to %q: %v", line, err)
		}
		var resp service.Response
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatalf("reply %q: %v", reply, err)
		}
		if wantOK := line != "not json"; resp.OK != wantOK {
			t.Fatalf("reply to %q = %s", line, reply)
		}
	}
	var malformed uint64
	for _, op := range coord.Metrics().Snapshot().Ops {
		if op.Op == "malformed" {
			malformed = op.Count
		}
	}
	if malformed != 1 {
		t.Errorf("coordinator counted %d malformed requests, want 1", malformed)
	}

	done := make(chan error, 1)
	go func() { done <- coord.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return with two client connections open")
	}
	if err := idle.Ping(); err == nil {
		t.Error("ping succeeded after Close")
	}
	if _, err := rd.ReadBytes('\n'); err == nil {
		t.Error("raw connection still open after Close")
	}
}
