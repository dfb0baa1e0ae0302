package cluster

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"nonexposure/internal/dataset"
	"nonexposure/internal/geo"
	"nonexposure/internal/graph"
	"nonexposure/internal/service"
)

// mutualComponents partitions the uploaded users into WPG components
// from scratch: a union-find over every stored upload, joining u and v
// when each ranks the other.
func mutualComponents(c *Coordinator) *graph.UnionFind {
	uf := graph.NewUnionFind(c.numUsers)
	for u, peers := range c.uploads {
		for _, pr := range peers {
			if v := pr.Peer; v > u && c.ranksLocked(v, u) {
				uf.Union(u, v)
			}
		}
	}
	return uf
}

// rehomeFromScratch is the reference for rehomeLocked: the rehome the
// coordinator ran at every rotation before it tracked cross edges. It
// partitions every stored upload, homes each component on the alive
// owner of its minimum-(key, id) member, updates c.serving, and returns
// the moves in user order and the number of users in components
// spanning two or more key owners. Callers hold c.mu.
func rehomeFromScratch(c *Coordinator) ([]move, int) {
	uf := mutualComponents(c)
	type comp struct {
		low   int32 // minimum-(key, id) member
		owner int32 // key owner of the first member seen
		size  int
		mixed bool // members with different key owners
	}
	comps := make(map[int32]*comp)
	for u := range c.uploads {
		r := uf.Find(u)
		m := comps[r]
		if m == nil {
			m = &comp{low: u, owner: c.keyOwner[u]}
			comps[r] = m
		}
		m.size++
		m.mixed = m.mixed || c.keyOwner[u] != m.owner
		if c.keys[u] < c.keys[m.low] || (c.keys[u] == c.keys[m.low] && u < m.low) {
			m.low = u
		}
	}
	straddling := 0
	for _, m := range comps {
		if m.mixed {
			straddling += m.size
		}
	}
	var moves []move
	for u := range c.uploads {
		home := c.aliveOwnerLocked(comps[uf.Find(u)].low)
		if c.serving[u] != home {
			moves = append(moves, move{user: u, from: c.serving[u], to: home})
			c.serving[u] = home
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].user < moves[j].user })
	return moves, straddling
}

// crossFromScratch returns every cross edge of the stored uploads as an
// ordered pair.
func crossFromScratch(c *Coordinator) map[[2]int32]bool {
	out := make(map[[2]int32]bool)
	for u, peers := range c.uploads {
		for _, pr := range peers {
			if v := pr.Peer; v > u && c.keyOwner[u] != c.keyOwner[v] && c.ranksLocked(v, u) {
				out[[2]int32{u, v}] = true
			}
		}
	}
	return out
}

// crossPairs flattens the coordinator's incidence lists into ordered
// pairs, failing on an edge recorded at one end only or twice.
func crossPairs(t *testing.T, where string, c *Coordinator) map[[2]int32]bool {
	t.Helper()
	out := make(map[[2]int32]bool)
	for u, vs := range c.cross {
		if len(vs) == 0 {
			t.Fatalf("%s: boundary user %d kept an empty incidence list", where, u)
		}
		for _, v := range vs {
			if n := countOf(c.cross[v], u); n != 1 {
				t.Fatalf("%s: cross edge %d-%d listed %d times at %d", where, u, v, n, v)
			}
			if n := countOf(vs, v); n != 1 {
				t.Fatalf("%s: cross edge %d-%d listed %d times at %d", where, u, v, n, u)
			}
			out[[2]int32{min(u, v), max(u, v)}] = true
		}
	}
	return out
}

func countOf(l []int32, x int32) int {
	n := 0
	for _, y := range l {
		if y == x {
			n++
		}
	}
	return n
}

// rehomeCoverage counts the situations the differential must have met.
type rehomeCoverage struct {
	keyTies, selfPeers, dupPeers, emptyLists  int
	crossMade, crossBroken, merges, splits    int
	deadMoves, reviveMoves, straddlingRotates int
}

// TestRehomeMatchesFromScratch runs the cross-edge rehome next to the
// from-scratch union-find on a twin coordinator over seeded sequences of
// uploads and shard deaths and revivals, at 2–4 shards. After every
// rotation the moves (order, from, to), the serving table and the
// straddling count must be identical, and the incremental cross-edge
// set must equal the one derived from scratch.
func TestRehomeMatchesFromScratch(t *testing.T) {
	const sequences = 150
	var cov rehomeCoverage
	for seed := int64(1); seed <= sequences; seed++ {
		rehomeSequence(t, seed, &cov)
	}
	t.Logf("coverage over %d sequences: %+v", sequences, cov)
	for name, n := range map[string]int{
		"key ties at a component minimum": cov.keyTies,
		"self peers":                      cov.selfPeers,
		"duplicate peers":                 cov.dupPeers,
		"empty lists":                     cov.emptyLists,
		"cross edges made":                cov.crossMade,
		"cross edges broken":              cov.crossBroken,
		"component merges":                cov.merges,
		"component splits":                cov.splits,
		"moves off a dead shard":          cov.deadMoves,
		"moves onto a revived shard":      cov.reviveMoves,
		"rotations with straddlers":       cov.straddlingRotates,
	} {
		if n == 0 {
			t.Errorf("no sequence exercised %s", name)
		}
	}
}

func rehomeSequence(t *testing.T, seed int64, cov *rehomeCoverage) {
	rng := rand.New(rand.NewSource(seed))
	nShards := 2 + rng.Intn(3)
	n := 24 + rng.Intn(40)
	// Few distinct keys, so equal keys are common and the (key, id)
	// order has to break ties.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(n/2 + 1))
	}
	twin := func() *Coordinator {
		addrs := make([]string, nShards)
		for i := range addrs {
			addrs[i] = "127.0.0.1:1" // never answers: nothing here is delivered
		}
		c, err := New(WithNumUsers(n), WithK(2), WithShardAddrs(addrs...), WithKeys(keys))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	inc, ref := twin(), twin()
	defer inc.Close()
	defer ref.Close()

	// Peers are drawn mostly from a user's neighbours in key order, so
	// components grow along the key line and straddle the owner runs'
	// boundaries, as Hilbert keys make them do.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		return ka < kb || (ka == kb && order[a] < order[b])
	})
	pos := make([]int, n)
	for i, u := range order {
		pos[u] = i
	}
	peersFor := func(u int32) []service.PeerRank {
		if rng.Intn(8) == 0 {
			cov.emptyLists++
			return nil
		}
		var peers []service.PeerRank
		for d := -3; d <= 3; d++ {
			if i := pos[u] + d; d != 0 && i >= 0 && i < n && rng.Intn(3) > 0 {
				peers = append(peers, service.PeerRank{Peer: order[i], Rank: int32(1 + rng.Intn(10))})
			}
		}
		if rng.Intn(5) == 0 {
			peers = append(peers, service.PeerRank{Peer: int32(rng.Intn(n)), Rank: 1})
		}
		if rng.Intn(8) == 0 {
			cov.selfPeers++
			peers = append(peers, service.PeerRank{Peer: u, Rank: 2})
		}
		if len(peers) > 0 && rng.Intn(6) == 0 {
			cov.dupPeers++
			peers = append(peers, peers[rng.Intn(len(peers))])
		}
		rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		return peers
	}

	var prevRoot map[int32]int32
	prevCross := map[[2]int32]bool{}
	rounds := 4 + rng.Intn(7)
	for round := 0; round < rounds; round++ {
		// Uploads: everyone in the first round, then a random subset,
		// sometimes re-sending a user twice.
		count := n
		if round > 0 {
			count = 1 + rng.Intn(n/2)
		}
		for i := 0; i < count; i++ {
			u := int32(i)
			if round > 0 {
				u = int32(rng.Intn(n))
			}
			req := UploadRequest{User: u, Peers: peersFor(u)}
			for _, c := range []*Coordinator{inc, ref} {
				if err := c.Upload(bg, req); err != nil {
					t.Fatalf("seed %d: upload %d: %v", seed, u, err)
				}
			}
		}
		// Shard deaths and revivals, identical on both twins.
		revived := -1
		if round > 0 && rng.Intn(3) == 0 {
			s := rng.Intn(nShards)
			switch {
			case inc.health[s].isDead():
				revived = s
				inc.health[s].markRecovered()
				ref.health[s].markRecovered()
			case inc.aliveShards() > 1:
				inc.health[s].declareDead()
				ref.health[s].declareDead()
			}
		}

		inc.mu.Lock()
		ref.mu.Lock()
		got, gotStraddling := inc.rehomeLocked()
		want, wantStraddling := rehomeFromScratch(ref)
		where := fmt.Sprintf("seed %d (%d users, %d shards), rotation %d", seed, n, nShards, round)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: moves differ\n  cross-edge walk: %v\n  from scratch:    %v", where, got, want)
		}
		if !slices.Equal(inc.serving, ref.serving) {
			t.Fatalf("%s: serving differs\n  cross-edge walk: %v\n  from scratch:    %v", where, inc.serving, ref.serving)
		}
		if gotStraddling != wantStraddling {
			t.Fatalf("%s: straddling %d, from scratch %d", where, gotStraddling, wantStraddling)
		}
		cross := crossFromScratch(ref)
		if gotCross := crossPairs(t, where, inc); !maps.Equal(gotCross, cross) {
			t.Fatalf("%s: cross edges differ\n  incremental:  %v\n  from scratch: %v", where, gotCross, cross)
		}

		// Coverage, read off the reference.
		for _, mv := range want {
			if mv.from >= 0 && ref.health[mv.from].isDead() {
				cov.deadMoves++
			}
			if int(mv.to) == revived {
				cov.reviveMoves++
			}
		}
		if wantStraddling > 0 {
			cov.straddlingRotates++
		}
		for e := range cross {
			if !prevCross[e] {
				cov.crossMade++
			}
		}
		for e := range prevCross {
			if !cross[e] {
				cov.crossBroken++
			}
		}
		prevCross = cross
		uf := mutualComponents(ref)
		root := make(map[int32]int32, len(ref.uploads))
		low := make(map[int32]int32)
		for u := range ref.uploads {
			r := uf.Find(u)
			root[u] = r
			if l, ok := low[r]; !ok || keys[u] < keys[l] || (keys[u] == keys[l] && u < l) {
				low[r] = u
			}
		}
		for u, r := range root {
			if l := low[r]; u != l && keys[u] == keys[l] {
				cov.keyTies++
			}
		}
		merges, splits := partitionChanges(prevRoot, root)
		cov.merges += merges
		cov.splits += splits
		prevRoot = root
		inc.mu.Unlock()
		ref.mu.Unlock()
	}
}

// partitionChanges counts the components of next that join members of
// two or more components of prev (merges), and the components of prev
// whose members land in two or more components of next (splits), over
// the users present in both.
func partitionChanges(prev, next map[int32]int32) (merges, splits int) {
	if prev == nil {
		return 0, 0
	}
	fromPrev := make(map[int32]map[int32]bool) // next root -> prev roots
	toNext := make(map[int32]map[int32]bool)   // prev root -> next roots
	for u, r := range next {
		p, ok := prev[u]
		if !ok {
			continue
		}
		if fromPrev[r] == nil {
			fromPrev[r] = make(map[int32]bool)
		}
		fromPrev[r][p] = true
		if toNext[p] == nil {
			toNext[p] = make(map[int32]bool)
		}
		toNext[p][r] = true
	}
	for _, s := range fromPrev {
		if len(s) > 1 {
			merges++
		}
	}
	for _, s := range toNext {
		if len(s) > 1 {
			splits++
		}
	}
	return merges, splits
}

// TestConcurrentUploadsDuringRotates uploads from several goroutines
// while rotations run back to back; each writer waits for a rotation to
// finish between its rounds, so rotations land between and during the
// rounds' uploads. Once quiet, a last rotation must
// leave nothing for the from-scratch rehome to move, report its
// straddling count, and serve every user as a single process holding
// the final lists does.
func TestConcurrentUploadsDuringRotates(t *testing.T) {
	n, k := 400, 4
	pts := dataset.CaliforniaLike(n, 5)
	keys, err := HilbertKeys(pts, DefaultKeyOrder)
	if err != nil {
		t.Fatal(err)
	}
	coord := startCluster(t, n, k, 2, keys, nil)
	rng := rand.New(rand.NewSource(5))
	moved := append([]geo.Point(nil), pts...)
	for i := range moved {
		moved[i].X += (rng.Float64() - 0.5) * 0.01
		moved[i].Y += (rng.Float64() - 0.5) * 0.01
	}
	snapshots := []map[int32][]service.PeerRank{proximityLists(pts), proximityLists(moved)}
	listFor := func(round int, u int32) []service.PeerRank { return snapshots[(round+int(u))%2][u] }

	const writers, rounds = 3, 4
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		rotations int
		stopped   bool
		failed    bool // a rotation failed: writers stop waiting for the next
	)
	rotated := make(chan error, 1)
	go func() {
		for {
			mu.Lock()
			stop := stopped
			mu.Unlock()
			if stop {
				rotated <- nil
				return
			}
			_, err := coord.Rotate(bg)
			mu.Lock()
			rotations++
			failed = err != nil
			cond.Broadcast()
			mu.Unlock()
			if err != nil {
				rotated <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				mu.Lock()
				seen := rotations
				mu.Unlock()
				for u := int32(w); u < int32(n); u += writers {
					if err := coord.Upload(bg, UploadRequest{User: u, Peers: listFor(round, u)}); err != nil {
						t.Error(err)
						return
					}
				}
				mu.Lock()
				for rotations == seen && !failed {
					cond.Wait()
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	stopped = true
	mu.Unlock()
	if err := <-rotated; err != nil {
		t.Fatal(err)
	}
	st, err := coord.Rotate(bg)
	if err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	moves, straddling := rehomeFromScratch(coord)
	coord.mu.Unlock()
	if len(moves) != 0 || straddling != st.Straddling {
		t.Fatalf("after the last rotation the from-scratch rehome moves %d users and counts %d straddling, the rotation %d", len(moves), straddling, st.Straddling)
	}
	if straddling == 0 {
		t.Fatal("no straddling component; the scenario is vacuous")
	}

	ref := startReference(t, n, k)
	for u := int32(0); u < int32(n); u++ {
		if err := ref.Upload(u, listFor(rounds-1, u)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Freeze(); err != nil {
		t.Fatal(err)
	}
	compareAllUsers(t, n, k, ref, coord)
}
