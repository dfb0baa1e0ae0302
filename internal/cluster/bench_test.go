package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"nonexposure/internal/dataset"
	"nonexposure/internal/geo"
	"nonexposure/internal/service"
)

// BenchmarkCoordinatorUploadBatch measures the ordered write path at 4
// shards, synthetic ring peer lists (no graph build in the loop):
//
//   - serialized: Flush after every Upload — one upload_batch round
//     trip per upload, the cost shape of the old lock-held forward.
//   - pipelined: stream Uploads and Flush once — the sender coalesces
//     queued writes into large batches.
//
// ns/op is per upload in both, so the ratio is the pipelining speedup.
func BenchmarkCoordinatorUploadBatch(b *testing.B) {
	const n, k, nShards = 4000, 4, 4
	shards, err := SpawnInProcess(bg, nShards, ShardConfig{NumUsers: n, K: k})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { CloseShards(shards) })

	lists := make([][]service.PeerRank, n)
	for u := 0; u < n; u++ {
		lists[u] = []service.PeerRank{
			{Peer: int32((u + 1) % n), Rank: 1},
			{Peer: int32((u - 1 + n) % n), Rank: 2},
		}
	}
	newCoord := func(b *testing.B, opts ...Option) *Coordinator {
		b.Helper()
		coord, err := New(append([]Option{WithNumUsers(n), WithK(k), WithShardAddrs(Addrs(shards)...)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { coord.Close() })
		return coord
	}
	upload := func(b *testing.B, coord *Coordinator, i int) {
		u := int32(i % n)
		if err := coord.Upload(bg, UploadRequest{User: u, Peers: lists[u]}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("serialized", func(b *testing.B) {
		coord := newCoord(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			upload(b, coord, i)
			if err := coord.Flush(bg); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, batch := range []int{32, DefaultMaxBatch} {
		b.Run(fmt.Sprintf("pipelined/max%d", batch), func(b *testing.B) {
			coord := newCoord(b, WithMaxBatch(batch))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upload(b, coord, i)
			}
			if err := coord.Flush(bg); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCoordinatorRehome measures one rotation's rehome under the
// routing lock at 20k CaliforniaLike users on 2 shards. Each iteration
// re-uploads a fresh tenth of the users (untimed) from a moved snapshot,
// then rehomes (timed):
//
//   - straddling: rehomeLocked, which re-derives the re-uploaded users'
//     cross edges and walks only the components that straddle a
//     key-owner boundary.
//   - from-scratch: the union-find over every stored upload that it
//     replaced (rehomeFromScratch, the test reference).
//
// straddlers/op is the number of users in straddling components.
func BenchmarkCoordinatorRehome(b *testing.B) {
	const n, k, nShards = 20000, 10, 2
	pts := dataset.CaliforniaLike(n, 1)
	keys, err := HilbertKeys(pts, DefaultKeyOrder)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	moved := append([]geo.Point(nil), pts...)
	for i := range moved {
		moved[i].X += (rng.Float64() - 0.5) * 0.01
		moved[i].Y += (rng.Float64() - 0.5) * 0.01
	}
	snapshots := []map[int32][]service.PeerRank{proximityLists(pts), proximityLists(moved)}
	perm := rng.Perm(n)
	shards, err := SpawnInProcess(bg, nShards, ShardConfig{NumUsers: n, K: k})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { CloseShards(shards) })

	arms := []struct {
		name   string
		rehome func(*Coordinator) ([]move, int)
	}{
		{"straddling", (*Coordinator).rehomeLocked},
		{"from-scratch", rehomeFromScratch},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			coord, err := New(WithNumUsers(n), WithK(k), WithShardAddrs(Addrs(shards)...), WithKeys(keys))
			if err != nil {
				b.Fatal(err)
			}
			defer coord.Close()
			upload := func(users []int, lists map[int32][]service.PeerRank) {
				for _, u := range users {
					if err := coord.Upload(bg, UploadRequest{User: int32(u), Peers: lists[int32(u)]}); err != nil {
						b.Fatal(err)
					}
				}
				if err := coord.Flush(bg); err != nil {
					b.Fatal(err)
				}
			}
			rehome := func() int {
				coord.mu.Lock()
				defer coord.mu.Unlock()
				_, straddling := arm.rehome(coord)
				return straddling
			}
			upload(perm, snapshots[0])
			rehome()
			straddlers := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tenth := i % 10
				upload(perm[tenth*n/10:(tenth+1)*n/10], snapshots[(i/10+1)%2])
				b.StartTimer()
				straddlers += rehome()
			}
			b.ReportMetric(float64(straddlers)/float64(b.N), "straddlers/op")
		})
	}
}
