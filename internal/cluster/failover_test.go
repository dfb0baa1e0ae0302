package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nonexposure/internal/dataset"
	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// TestShardFailoverAndRecovery is the kill/restart acceptance scenario:
// a 3-shard cluster loses a shard, a rotation declares it dead and
// re-homes its users onto the survivors — after which every user gets
// exactly the single-process answer again — and a restarted (empty)
// process on the same address is revived by a later rotation's probe,
// with replays restoring its state from the coordinator's store.
func TestShardFailoverAndRecovery(t *testing.T) {
	n, k := 600, 4
	pts := dataset.CaliforniaLike(n, 7)
	keys, err := HilbertKeys(pts, DefaultKeyOrder)
	if err != nil {
		t.Fatal(err)
	}
	ref := startReference(t, n, k)
	shards, err := SpawnInProcess(bg, 3, ShardConfig{NumUsers: n, K: k})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseShards(shards) })
	cm := metrics.NewClusterMetrics()
	coord, err := New(
		WithNumUsers(n), WithK(k), WithShardAddrs(Addrs(shards)...),
		WithKeys(keys), WithClusterMetrics(cm), WithMaxBatch(8),
		WithDeadAfter(300*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	lists := proximityLists(pts)
	for u := int32(0); u < int32(n); u++ {
		if err := ref.Upload(u, lists[u]); err != nil {
			t.Fatal(err)
		}
		if err := coord.Upload(bg, UploadRequest{User: u, Peers: lists[u]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	compareAllUsers(t, n, k, ref, coord)

	// Kill shard 1 and find one of its users; re-sending that user's
	// stored list starts the sender's failure clock immediately.
	const victim = 1
	_ = shards[victim].Kill()
	var vu int32 = -1
	coord.mu.RLock()
	for u := int32(0); u < int32(n); u++ {
		if coord.serving[u] == victim {
			vu = u
			break
		}
	}
	coord.mu.RUnlock()
	if vu < 0 {
		t.Fatal("no user served by the victim shard; scenario is vacuous")
	}
	if err := coord.Upload(bg, UploadRequest{User: vu, Peers: lists[vu]}); err != nil {
		t.Fatalf("upload to a failing shard must still be accepted, got %v", err)
	}

	// Rotate until a rotation declares the shard dead and fails over.
	deadline := time.Now().Add(15 * time.Second)
	var st RotateStats
	for {
		st, err = coord.Rotate(bg)
		if err != nil {
			t.Fatal(err)
		}
		if st.FailedOver > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never declared dead")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.DeadShards != 1 {
		t.Fatalf("DeadShards = %d after failover, want 1", st.DeadShards)
	}

	// Every user — including the dead shard's — is served identically to
	// the single process again: failover cost availability for a few
	// rotations, never correctness.
	compareAllUsers(t, n, k, ref, coord)

	// An upload for a failed-over user routes to its new home.
	if err := coord.Upload(bg, UploadRequest{User: vu, Peers: lists[vu]}); err != nil {
		t.Fatalf("post-failover upload: %v", err)
	}
	if err := coord.Flush(bg); err != nil {
		t.Fatalf("post-failover flush: %v", err)
	}

	snap := cm.Snapshot()
	if snap.Failovers < 1 {
		t.Errorf("Failovers = %d, want >= 1", snap.Failovers)
	}
	if snap.ShardStates[victim] != ShardDead {
		t.Errorf("ShardStates[%d] = %d, want %d (dead)", victim, snap.ShardStates[victim], ShardDead)
	}
	if snap.ShardRetries[victim] == 0 {
		t.Error("ShardRetries[victim] = 0, want retries recorded before death")
	}

	// Restart: a fresh, empty shard on the dead shard's address. A later
	// rotation's probe revives it and re-homing replays its components
	// back from the coordinator's store.
	srv2, err := service.New(service.WithNumUsers(n), service.WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	if _, err := srv2.Listen(bg, shards[victim].Addr); err != nil {
		t.Fatalf("rebind the dead shard's address: %v", err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		st, err = coord.Rotate(bg)
		if err != nil {
			t.Fatal(err)
		}
		if st.DeadShards == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted shard never revived")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.Moves == 0 {
		t.Error("revival re-homed nobody back onto the restarted shard")
	}
	compareAllUsers(t, n, k, ref, coord)
}

// flakyProxy forwards TCP connections to a target. While down it
// closes every connection it holds and every one it accepts, so the
// target looks unreachable to its clients while it keeps its state: a
// network partition, not a crash.
type flakyProxy struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup

	mu    sync.Mutex
	down  bool
	conns map[net.Conn]struct{}
}

func startProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.pipe(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.setDown(true)
		p.wg.Wait()
	})
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

// pipe relays one client connection to the target until either side
// closes or the proxy goes down.
func (p *flakyProxy) pipe(client net.Conn) {
	defer client.Close()
	if !p.track(client) {
		return
	}
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer server.Close()
	if !p.track(server) {
		return
	}
	done := make(chan struct{}, 2)
	go func() { io.Copy(server, client); done <- struct{}{} }()
	go func() { io.Copy(client, server); done <- struct{}{} }()
	<-done
	client.Close()
	server.Close()
	<-done
	p.mu.Lock()
	delete(p.conns, client)
	delete(p.conns, server)
	p.mu.Unlock()
}

// track registers conn so setDown can close it; false means the proxy
// is down.
func (p *flakyProxy) track(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return false
	}
	p.conns[conn] = struct{}{}
	return true
}

func (p *flakyProxy) setDown(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
	if down {
		for conn := range p.conns {
			conn.Close()
		}
		clear(p.conns)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// proxiedCluster starts a 2-shard cluster of n users whose shard 1 sits
// behind a flakyProxy, keyed by id: users below n/2 key-own to shard 0,
// the rest to shard 1.
func proxiedCluster(t *testing.T, n, k int, cm *metrics.ClusterMetrics, opts ...Option) (*Coordinator, *flakyProxy) {
	t.Helper()
	shards, err := SpawnInProcess(bg, 2, ShardConfig{NumUsers: n, K: k})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseShards(shards) })
	proxy := startProxy(t, shards[1].Addr)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	coord, err := New(append([]Option{
		WithNumUsers(n), WithK(k), WithShardAddrs(shards[0].Addr, proxy.addr()),
		WithKeys(keys), WithClusterMetrics(cm),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, proxy
}

// ringPeers ranks u's two neighbours on the ring lo..hi.
func ringPeers(u, lo, hi int32) []service.PeerRank {
	prev, next := u-1, u+1
	if u == lo {
		prev = hi
	}
	if u == hi {
		next = lo
	}
	return []service.PeerRank{{Peer: prev, Rank: 1}, {Peer: next, Rank: 2}}
}

// uploadBoth sends one upload to the single-process reference and to
// the cluster.
func uploadBoth(t *testing.T, ref *service.Client, coord *Coordinator, req UploadRequest) {
	t.Helper()
	if err := ref.Upload(req.User, req.Peers); err != nil {
		t.Fatal(err)
	}
	if err := coord.Upload(bg, req); err != nil {
		t.Fatal(err)
	}
}

// TestNoUploadLostAcrossTransportFailure cuts shard 1 off while user 20
// re-uploads an empty list, until the ordered sender has failed to
// forward it twice. Once the proxy heals, the sender must deliver the
// batch it kept: Flush succeeds, and the next rotation freezes both
// shards (its edges equal the single process's) and serves every user,
// 20 included, the single-process answer.
func TestNoUploadLostAcrossTransportFailure(t *testing.T) {
	const n, k = 30, 2
	ref := startReference(t, n, k)
	cm := metrics.NewClusterMetrics()
	coord, proxy := proxiedCluster(t, n, k, cm)

	// A chain on each shard: 0..14 and 15..29.
	for u := int32(0); u < n; u++ {
		var peers []service.PeerRank
		if u != 0 && u != 15 {
			peers = append(peers, service.PeerRank{Peer: u - 1, Rank: 1})
		}
		if u != 14 && u != 29 {
			peers = append(peers, service.PeerRank{Peer: u + 1, Rank: 2})
		}
		uploadBoth(t, ref, coord, UploadRequest{User: u, Peers: peers})
	}
	if _, err := ref.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	compareAllUsers(t, n, k, ref, coord)

	proxy.setDown(true)
	uploadBoth(t, ref, coord, UploadRequest{User: 20})
	waitFor(t, "two failed forwards to shard 1", func() bool { return cm.Snapshot().ShardRetries[1] >= 2 })
	proxy.setDown(false)

	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := coord.Flush(ctx); err != nil {
		t.Errorf("flush after the proxy healed: %v", err)
	}
	want, err := ref.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord.Rotate(bg)
	if err != nil {
		t.Fatalf("rotate after the proxy healed: %v", err)
	}
	if st.Edges != want.Edges {
		t.Fatalf("rotation serves %d edges, the single process %d", st.Edges, want.Edges)
	}
	compareAllUsers(t, n, k, ref, coord)
}

// TestPartitionedShardRevivesClean cuts shard 1 off, which keeps its
// rows, past DeadAfter, so a rotation declares it dead and fails its
// users over. Meanwhile users 20 and 5 rank each other, and 20 leaves
// the ring on shard 1 for a pair homed on shard 0. The rotation that
// revives shard 1 must tombstone 20's old row there: otherwise 19 and
// 21 keep their edges to 20 on shard 1, whose clusters then differ from
// the single process's, and user 20 sits in clusters on two shards.
func TestPartitionedShardRevivesClean(t *testing.T) {
	const n, k = 30, 2
	const deadAfter = 200 * time.Millisecond
	ref := startReference(t, n, k)
	coord, proxy := proxiedCluster(t, n, k, metrics.NewClusterMetrics(), WithDeadAfter(deadAfter))

	// A ring on each shard: 0..14 and 15..29.
	for u := int32(0); u < n; u++ {
		lo, hi := int32(0), int32(14)
		if u >= 15 {
			lo, hi = 15, 29
		}
		uploadBoth(t, ref, coord, UploadRequest{User: u, Peers: ringPeers(u, lo, hi)})
	}
	if _, err := ref.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	compareAllUsers(t, n, k, ref, coord)

	proxy.setDown(true)
	uploadBoth(t, ref, coord, UploadRequest{User: 20, Peers: []service.PeerRank{{Peer: 5, Rank: 1}}})
	uploadBoth(t, ref, coord, UploadRequest{User: 5, Peers: []service.PeerRank{{Peer: 20, Rank: 1}}})
	if _, err := ref.Freeze(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "shard 1 failing for DeadAfter", func() bool { return coord.health[1].failingFor(time.Now()) >= deadAfter })
	st, err := coord.Rotate(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadShards != 1 || st.FailedOver == 0 {
		t.Fatalf("rotation after DeadAfter: %+v, want shard 1 dead and its users failed over", st)
	}
	compareAllUsers(t, n, k, ref, coord)

	proxy.setDown(false)
	deadline := time.Now().Add(10 * time.Second)
	for st.DeadShards != 0 {
		if time.Now().After(deadline) {
			t.Fatal("shard 1 never revived")
		}
		if st, err = coord.Rotate(bg); err != nil {
			t.Fatal(err)
		}
	}
	compareAllUsers(t, n, k, ref, coord)
	err = coord.pools[1].query(func(cl *service.Client) error {
		_, err := cl.CloakV1(20)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "smaller than k") {
		t.Fatalf("revived shard 1 answers user 20, now homed on shard 0, with err=%v; want a sub-k refusal", err)
	}
}

// TestParkedWriterStartsFailover parks a writer behind a failing shard
// of an auto-rotating coordinator. Only uploads start its rotations, and
// a parked writer makes none, so unless the parked writer starts one
// itself nothing declares shard 1 dead and the writer waits out its
// whole context. Once shard 1 fails over, every upload is accepted and
// the next rotation serves every user the single-process answer.
func TestParkedWriterStartsFailover(t *testing.T) {
	const n, k = 40, 2
	const uploads = 20000
	ref := startReference(t, n, k)
	cm := metrics.NewClusterMetrics()
	coord, proxy := proxiedCluster(t, n, k, cm, WithEveryUploads(100), WithDeadAfter(200*time.Millisecond))
	proxy.setDown(true)

	ctx, cancel := context.WithTimeout(bg, 6*time.Second)
	defer cancel()
	for i := 0; i < uploads; i++ {
		u := int32(20 + i%20)
		if err := coord.Upload(ctx, UploadRequest{User: u, Peers: ringPeers(u, 20, 39)}); err != nil {
			snap := cm.Snapshot()
			t.Fatalf("upload %d: %v (rotations %d, failovers %d, shard states %v)",
				i, err, snap.Rotations, snap.Failovers, snap.ShardStates)
		}
	}
	if snap := cm.Snapshot(); !coord.health[1].isDead() || snap.Failovers == 0 {
		t.Fatalf("after %d uploads: failovers %d, shard states %v; want shard 1 dead", uploads, snap.Failovers, snap.ShardStates)
	}

	for u := int32(20); u < n; u++ {
		if err := ref.Upload(u, ringPeers(u, 20, 39)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	compareAllUsers(t, n, k, ref, coord)
}

// TestDropQueueMidFlightKeepsLaterForwards declares a shard's queue
// dropped while a batch is in flight, then enqueues a new forward before
// the stale batch's reply arrives. That reply acknowledges only the
// dropped batch: the new forward must still be sent.
func TestDropQueueMidFlightKeepsLaterForwards(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	batches := make(chan []service.UploadEntry, 4)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for first := true; ; first = false {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			var req service.Request
			if err := json.Unmarshal(line, &req); err != nil {
				return
			}
			batches <- req.Uploads
			if first {
				<-release
			}
			fmt.Fprintf(conn, `{"v":1,"ok":true,"batch":{"accepted":%d}}`+"\n", len(req.Uploads))
		}
	}()
	pool := newShardPool(ln.Addr().String())
	s := newOrderedSender(0, pool, newShardHealth(0, nil), nil, DefaultMaxBatch)
	t.Cleanup(func() {
		pool.close()
		s.close()
		ln.Close()
	})

	if err := s.enqueue(UploadRequest{User: 1}); err != nil {
		t.Fatal(err)
	}
	if b := <-batches; len(b) != 1 || b[0].User != 1 {
		t.Fatalf("first batch %+v, want user 1 alone", b)
	}
	if dropped := s.dropQueue(); len(dropped) != 1 || dropped[0].User != 1 {
		t.Fatalf("dropQueue returned %+v, want the in-flight batch of user 1", dropped)
	}
	if err := s.enqueue(UploadRequest{User: 2}); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case b := <-batches:
		if len(b) != 1 || b[0].User != 2 {
			t.Fatalf("second batch %+v, want user 2 alone", b)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the forward enqueued after the drop was never sent")
	}
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := s.flush(ctx); err != nil {
		t.Fatal(err)
	}
}
