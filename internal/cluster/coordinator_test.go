package cluster

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"nonexposure/internal/dataset"
	"nonexposure/internal/geo"
	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
	"nonexposure/internal/wpg"
)

var bg = context.Background()

// proximityLists derives every user's ranked peer list from positions,
// exactly as the simulation drivers do.
func proximityLists(pts []geo.Point) map[int32][]service.PeerRank {
	delta := 2e-3
	if len(pts) != dataset.CaliforniaPOISize {
		delta *= math.Sqrt(float64(dataset.CaliforniaPOISize) / float64(len(pts)))
	}
	g := wpg.Build(pts, wpg.BuildParams{Delta: delta, MaxPeers: 10})
	lists := make(map[int32][]service.PeerRank, len(pts))
	for v := int32(0); v < int32(len(pts)); v++ {
		var peers []service.PeerRank
		for _, e := range g.Neighbors(v) {
			peers = append(peers, service.PeerRank{Peer: e.To, Rank: e.W})
		}
		lists[v] = peers
	}
	return lists
}

func startReference(t *testing.T, n, k int) *service.Client {
	t.Helper()
	srv, err := service.New(service.WithNumUsers(n), service.WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.Listen(bg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := service.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func startCluster(t *testing.T, n, k, nShards int, keys []uint64, cm *metrics.ClusterMetrics, opts ...Option) *Coordinator {
	t.Helper()
	shards, err := SpawnInProcess(bg, nShards, ShardConfig{NumUsers: n, K: k})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseShards(shards) })
	coord, err := New(append([]Option{
		WithNumUsers(n), WithK(k), WithShardAddrs(Addrs(shards)...),
		WithKeys(keys), WithClusterMetrics(cm),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// cloakOutcome is one user's answer, normalized for comparison: the
// sorted member set on success, or the error category.
type cloakOutcome struct {
	members []int32
	subK    bool // "component smaller than k"
	err     string
}

func outcomeOf(members []int32, err error) cloakOutcome {
	if err != nil {
		return cloakOutcome{subK: strings.Contains(err.Error(), "smaller than k"), err: err.Error()}
	}
	sorted := append([]int32(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return cloakOutcome{members: sorted}
}

func sameOutcome(a, b cloakOutcome) bool {
	if (a.err == "") != (b.err == "") || a.subK != b.subK {
		return false
	}
	if len(a.members) != len(b.members) {
		return false
	}
	for i := range a.members {
		if a.members[i] != b.members[i] {
			return false
		}
	}
	return true
}

// compareAllUsers cloaks every user against the single-process reference
// and the cluster, requiring identical outcomes: the same members for
// served users, and for the rest the same unclusterable verdict — no
// border user silently dropped or answered with a sub-k fragment.
func compareAllUsers(t *testing.T, n, k int, ref *service.Client, coord *Coordinator) (served int) {
	t.Helper()
	for u := int32(0); u < int32(n); u++ {
		rp, rerr := ref.CloakV1(u)
		var rm []int32
		if rerr == nil {
			rm = rp.Cluster
		}
		cp, cerr := coord.Cloak(bg, u)
		var cmem []int32
		if cerr == nil {
			cmem = cp.Cluster
		}
		refOut, cOut := outcomeOf(rm, rerr), outcomeOf(cmem, cerr)
		if !sameOutcome(refOut, cOut) {
			t.Fatalf("user %d diverges:\n  single-process: members=%v err=%q\n  cluster:        members=%v err=%q",
				u, refOut.members, refOut.err, cOut.members, cOut.err)
		}
		if cerr == nil {
			if len(cp.Cluster) < k {
				t.Fatalf("user %d served a cluster of %d members, below k=%d", u, len(cp.Cluster), k)
			}
			served++
		}
	}
	return served
}

// TestTwoShardClusterMatchesSingleProcess is the acceptance differential:
// a 2-shard cluster must serve exactly the users a single-process cloakd
// serves, with identical cluster membership, across an initial build and
// two churn rounds (including partial re-uploads, which exercise
// re-homing of stale lists and tombstones).
func TestTwoShardClusterMatchesSingleProcess(t *testing.T) {
	n, k := 600, 4
	pts := dataset.CaliforniaLike(n, 7)
	keys, err := HilbertKeys(pts, DefaultKeyOrder)
	if err != nil {
		t.Fatal(err)
	}
	ref := startReference(t, n, k)
	cm := metrics.NewClusterMetrics()
	// A tiny batch cap forces every rotation's replays and every upload
	// round to split across many upload_batch round trips, so the
	// differential exercises batch boundaries, not just batch contents.
	coord := startCluster(t, n, k, 2, keys, cm, WithMaxBatch(3))

	lists := proximityLists(pts)
	uploadBoth := func(u int32) {
		t.Helper()
		if err := ref.Upload(u, lists[u]); err != nil {
			t.Fatalf("reference upload %d: %v", u, err)
		}
		if err := coord.Upload(bg, UploadRequest{User: u, Peers: lists[u]}); err != nil {
			t.Fatalf("cluster upload %d: %v", u, err)
		}
	}
	rotateBoth := func() RotateStats {
		t.Helper()
		if _, err := ref.Freeze(); err != nil && !strings.Contains(err.Error(), "no new uploads") {
			t.Fatalf("reference freeze: %v", err)
		}
		st, err := coord.Rotate(bg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	for u := int32(0); u < int32(n); u++ {
		uploadBoth(u)
	}
	rotateBoth()
	served := compareAllUsers(t, n, k, ref, coord)
	if served == 0 {
		t.Fatal("no user served at all; scenario is vacuous")
	}
	t.Logf("initial epoch: %d/%d users served identically", served, n)

	// The point of the exercise: with locality keys over a real spatial
	// dataset, some components must straddle the shard boundary, so the
	// equivalence above is only achievable via border replays.
	if snap := cm.Snapshot(); snap.BorderReplays == 0 {
		t.Fatal("no border replays happened — the differential never exercised cross-shard components")
	}

	// Churn round 1: everyone drifts, everyone re-uploads.
	rng := rand.New(rand.NewSource(11))
	moved := append([]geo.Point(nil), pts...)
	for i := range moved {
		moved[i].X += (rng.Float64() - 0.5) * 0.01
		moved[i].Y += (rng.Float64() - 0.5) * 0.01
	}
	lists = proximityLists(moved)
	for u := int32(0); u < int32(n); u++ {
		uploadBoth(u)
	}
	rotateBoth()
	compareAllUsers(t, n, k, ref, coord)

	// Churn round 2: only a third of the users re-upload; the rest keep
	// their stale lists, so components mix fresh and stale members and
	// re-homing must replay lists the coordinator stored in earlier
	// rounds. Every fifth re-uploader first re-sends its round-1 list and
	// immediately overwrites it with the fresh one — back-to-back writes
	// for the same user, where any reordering in the batching path would
	// leave the stale list winning and diverge from the reference.
	prev := lists
	for i := range moved {
		if i%3 == 0 {
			moved[i].X += (rng.Float64() - 0.5) * 0.02
			moved[i].Y += (rng.Float64() - 0.5) * 0.02
		}
	}
	lists = proximityLists(moved)
	for u := int32(0); u < int32(n); u++ {
		if u%3 != 0 {
			continue
		}
		if u%5 == 0 {
			if err := ref.Upload(u, prev[u]); err != nil {
				t.Fatalf("reference stale upload %d: %v", u, err)
			}
			if err := coord.Upload(bg, UploadRequest{User: u, Peers: prev[u]}); err != nil {
				t.Fatalf("cluster stale upload %d: %v", u, err)
			}
		}
		uploadBoth(u)
	}
	rotateBoth()
	compareAllUsers(t, n, k, ref, coord)
}

// TestFourShardClusterMatchesSingleProcess runs the same differential at
// 4 shards, where a component can straddle more than one boundary.
func TestFourShardClusterMatchesSingleProcess(t *testing.T) {
	n, k := 800, 5
	pts := dataset.CaliforniaLike(n, 21)
	keys, err := HilbertKeys(pts, DefaultKeyOrder)
	if err != nil {
		t.Fatal(err)
	}
	ref := startReference(t, n, k)
	coord := startCluster(t, n, k, 4, keys, metrics.NewClusterMetrics())

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
}

// TestClusterProfilesSurviveRehoming pins that a personalized profile
// follows its user across a border replay: the raised floor holds on
// whichever shard ends up serving the component.
func TestClusterProfilesSurviveRehoming(t *testing.T) {
	n, k := 40, 2
	// Keys split users into two halves by id; the component below
	// straddles the boundary.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	coord := startCluster(t, n, k, 2, keys, metrics.NewClusterMetrics())

	// A 4-clique of users 18..21: 18,19 key-own to shard 0; 20,21 to
	// shard 1. Mutual ranks all around.
	clique := []int32{18, 19, 20, 21}
	raised := service.ProfileSpec{K: 4}
	for _, u := range clique {
		var peers []service.PeerRank
		r := int32(1)
		for _, v := range clique {
			if v == u {
				continue
			}
			peers = append(peers, service.PeerRank{Peer: v, Rank: r})
			r++
		}
		var prof *service.ProfileSpec
		if u == 20 {
			prof = &raised
		}
		if err := coord.Upload(bg, UploadRequest{User: u, Peers: peers, Profile: prof}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := coord.Rotate(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Moves == 0 {
		t.Fatal("the straddling clique was not re-homed; test premise broken")
	}
	for _, u := range clique {
		p, err := coord.Cloak(bg, u)
		if err != nil {
			t.Fatalf("cloak %d: %v", u, err)
		}
		if len(p.Cluster) != 4 {
			t.Fatalf("user %d cluster = %v, want the full clique", u, p.Cluster)
		}
		if p.EffectiveK != 4 {
			t.Fatalf("user %d EffectiveK = %d, want 4 (profile lost in re-homing?)", u, p.EffectiveK)
		}
	}
}

// TestCoordinatorValidation covers constructor and per-op validation.
func TestCoordinatorValidation(t *testing.T) {
	if _, err := New(WithNumUsers(0), WithK(2), WithShardAddrs("x")); err == nil {
		t.Error("population 0 accepted")
	}
	if _, err := New(WithK(2), WithShardAddrs("x")); err == nil {
		t.Error("missing WithNumUsers accepted")
	}
	if _, err := New(WithNumUsers(10), WithK(0), WithShardAddrs("x")); err == nil {
		t.Error("k 0 accepted")
	}
	if _, err := New(WithNumUsers(10), WithK(2)); err == nil {
		t.Error("no shards accepted")
	}
	if _, err := New(WithNumUsers(10), WithK(2), WithShardAddrs("x"), WithShards(2)); err == nil {
		t.Error("WithShardAddrs+WithShards accepted")
	}
	if _, err := New(WithNumUsers(10), WithK(2), WithShardAddrs("x"), WithKeys(make([]uint64, 3))); err == nil {
		t.Error("key/population mismatch accepted")
	}
	if _, err := New(WithNumUsers(10), WithK(2), WithShardAddrs("x"), WithMaxBatch(0)); err == nil {
		t.Error("max batch 0 accepted")
	}
	if _, err := New(WithNumUsers(10), WithK(2), WithShardAddrs("x"), WithQueueCapacity(0)); err == nil {
		t.Error("queue capacity 0 accepted")
	}
	if _, err := New(WithNumUsers(10), WithK(2), WithShardAddrs("x"), WithFailover(Failover{DeadAfter: -time.Second})); err == nil {
		t.Error("negative failover deadline accepted")
	}
	keys := make([]uint64, 10)
	coord, err := New(WithNumUsers(10), WithK(2), WithShardAddrs("127.0.0.1:1"), WithKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Upload(bg, UploadRequest{User: -1}); err == nil {
		t.Error("negative user accepted")
	}
	if err := coord.Upload(bg, UploadRequest{User: 10}); err == nil {
		t.Error("out-of-range user accepted")
	}
	if err := coord.Upload(bg, UploadRequest{User: 1, Peers: []service.PeerRank{{Peer: 2, Rank: 0}}}); err == nil {
		t.Error("rank 0 accepted")
	}
	if err := coord.Upload(bg, UploadRequest{User: 1, Peers: []service.PeerRank{{Peer: 99, Rank: 1}}}); err == nil {
		t.Error("out-of-range peer accepted")
	}
	if _, err := coord.Cloak(bg, 11); err == nil {
		t.Error("out-of-range cloak accepted")
	}
}
