package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// TestCoordinatorWireProtocol drives the coordinator through its TCP
// front-end with a stock service.Client: a cluster must be a drop-in
// replacement for one cloakd.
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

	frozen, err := c.Freeze()
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	if frozen.Edges != 4 {
		t.Fatalf("freeze reported %d edges, want 4 (triangle 3 + pair 1)", frozen.Edges)
	}

	tri, err := c.CloakV1(15)
	if err != nil {
		t.Fatalf("cloak: %v", err)
	}
	if len(tri.Cluster) != 3 {
		t.Fatalf("cloak(15) = %v, want the triangle", tri.Cluster)
	}
	// A cloak for a user in no component.
	if _, err := c.CloakV1(9); err == nil {
		t.Fatal("cloak of an unknown user succeeded")
	}

	// Epoch + stats aggregates.
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
	// A rotate with nothing new: the shards answer unchanged, the
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

	// The coordinator front-end also accepts upload_batch and relays the
	// per-entry routing, including mid-batch rejection.
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
	for _, line := range []string{"not json", `{"v":1,"op":"ping"}`} {
		if _, err := raw.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("no reply to %q: %v", line, err)
		}
		var env service.Envelope
		if err := json.Unmarshal(reply, &env); err != nil {
			t.Fatalf("reply %q: %v", reply, err)
		}
		if wantOK := line != "not json"; env.OK != wantOK || env.V != service.ProtocolVersion {
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

// TestCoordinatorCloseAfterContextEnds is the regression test for
// cloakd -coordinator exiting 1 on a clean SIGINT: the end of the
// serving context closes the listener, and a Close after it must return
// nil rather than the second close's "use of closed network
// connection". The port must be closed too.
func TestCoordinatorCloseAfterContextEnds(t *testing.T) {
	coord := startCluster(t, 10, 2, 2, nil, nil)
	ctx, cancel := context.WithCancel(bg)
	addr, err := coord.Listen(ctx, "127.0.0.1:0")
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
	cancel()
	deadline := time.Now().Add(3 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr.String(), time.Second)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after the serving context ended")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("Close after the serving context ended = %v, want nil", err)
	}
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after the serving context ended")
	}
}

// TestEveryReplyIsAnEnvelope pins that a shard and a coordinator answer
// every line with a v1 envelope. A request without "v", a v0 request, a
// malformed line and two values on one line each get an error envelope,
// and the connection stays open for the v1 ping that follows.
func TestEveryReplyIsAnEnvelope(t *testing.T) {
	shard, err := service.New(service.WithNumUsers(10), service.WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shard.Close() })
	shardAddr, err := shard.Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordAddr, err := startCluster(t, 10, 2, 2, nil, nil).Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const ping = `{"v":1,"op":"ping"}`
	for _, srv := range []struct {
		name string
		addr net.Addr
	}{{"shard", shardAddr}, {"coordinator", coordAddr}} {
		t.Run(srv.name, func(t *testing.T) {
			raw, err := net.Dial("tcp", srv.addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if err := raw.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			rd := bufio.NewReader(raw)
			for _, bad := range []string{
				`{"op":"ping"}`,
				`{"v":0,"op":"cloak","user":1}`,
				`not json`,
				`{"op":"ping"}{"op":"stats"}`,
			} {
				for _, line := range []string{bad, ping} {
					if _, err := raw.Write([]byte(line + "\n")); err != nil {
						t.Fatalf("write %q: %v", line, err)
					}
					reply, err := rd.ReadBytes('\n')
					if err != nil {
						t.Fatalf("no reply to %q: %v", line, err)
					}
					var env service.Envelope
					if err := json.Unmarshal(reply, &env); err != nil {
						t.Fatalf("reply to %q is not an envelope: %s", line, reply)
					}
					wantOK := line == ping
					if env.V != service.ProtocolVersion || env.OK != wantOK || (env.Error == "") != wantOK {
						t.Fatalf("reply to %q = %s, want a v1 envelope with ok %v", line, reply, wantOK)
					}
				}
			}
		})
	}
}
