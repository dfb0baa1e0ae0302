package epoch

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"nonexposure/internal/core"
	"nonexposure/internal/wpg"
)

// multiRing builds r rings of size sz each: user ringBase+i is ranked
// with its two ring neighbors. Each ring is one WPG component, so the
// incremental rebuild has real shards to splice.
func multiRing(rings, sz int) map[int32][]RankedPeer {
	out := make(map[int32][]RankedPeer, rings*sz)
	for r := 0; r < rings; r++ {
		base := int32(r * sz)
		for i := 0; i < sz; i++ {
			u := base + int32(i)
			out[u] = []RankedPeer{
				{Peer: base + int32((i+1)%sz), Rank: 1},
				{Peer: base + int32((i-1+sz)%sz), Rank: 2},
			}
		}
	}
	return out
}

// churnScenario mutates the current upload state for one tick and
// returns the users whose lists changed. Mutations: in-ring rank swaps
// (weight churn inside a component) and cross-ring mutual pair toggles
// (component merges and splits).
type churnScenario struct {
	rng   *rand.Rand
	rings int
	sz    int
	lists map[int32][]RankedPeer
	// crossActive tracks which cross-ring pairs currently exist so a
	// toggle can remove exactly what it added.
	crossActive map[[2]int32]bool
}

func newChurnScenario(seed int64, rings, sz int) *churnScenario {
	return &churnScenario{
		rng:         rand.New(rand.NewSource(seed)),
		rings:       rings,
		sz:          sz,
		lists:       multiRing(rings, sz),
		crossActive: make(map[[2]int32]bool),
	}
}

func (s *churnScenario) tick() []int32 {
	touched := make(map[int32]struct{})
	// One or two in-ring rank swaps.
	for j := 0; j < 1+s.rng.Intn(2); j++ {
		u := int32(s.rng.Intn(s.rings * s.sz))
		peers := append([]RankedPeer(nil), s.lists[u]...)
		peers[0].Rank, peers[1].Rank = peers[1].Rank, peers[0].Rank
		s.lists[u] = peers
		touched[u] = struct{}{}
	}
	// Occasionally toggle a mutual cross-ring pair: merges two
	// components when added, splits them again when removed.
	if s.rng.Intn(3) == 0 {
		r1 := s.rng.Intn(s.rings)
		r2 := (r1 + 1 + s.rng.Intn(s.rings-1)) % s.rings
		a := int32(r1*s.sz + s.rng.Intn(s.sz))
		b := int32(r2*s.sz + s.rng.Intn(s.sz))
		key := [2]int32{a, b}
		if a > b {
			key = [2]int32{b, a}
		}
		if s.crossActive[key] {
			s.lists[a] = removePeer(s.lists[a], b)
			s.lists[b] = removePeer(s.lists[b], a)
			delete(s.crossActive, key)
		} else {
			s.lists[a] = append(append([]RankedPeer(nil), s.lists[a]...), RankedPeer{Peer: b, Rank: 3})
			s.lists[b] = append(append([]RankedPeer(nil), s.lists[b]...), RankedPeer{Peer: a, Rank: 3})
			s.crossActive[key] = true
		}
		touched[a] = struct{}{}
		touched[b] = struct{}{}
	}
	users := make([]int32, 0, len(touched))
	for u := range touched {
		users = append(users, u)
	}
	return users
}

// splitOne removes the smallest active cross-ring pair, splitting the
// component it joined, and returns its two users (none when no pair is
// active). The random toggles in tick rarely pick an active pair again.
func (s *churnScenario) splitOne() []int32 {
	var pairs [][2]int32
	for k := range s.crossActive {
		pairs = append(pairs, k)
	}
	if len(pairs) == 0 {
		return nil
	}
	k := slices.MinFunc(pairs, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	s.lists[k[0]] = removePeer(s.lists[k[0]], k[1])
	s.lists[k[1]] = removePeer(s.lists[k[1]], k[0])
	delete(s.crossActive, k)
	return k[:]
}

func removePeer(peers []RankedPeer, peer int32) []RankedPeer {
	out := make([]RankedPeer, 0, len(peers))
	for _, pr := range peers {
		if pr.Peer != peer {
			out = append(out, pr)
		}
	}
	return out
}

// TestIncrementalMatchesFullDifferential is the tentpole acceptance
// gate: across 100 seeded churn scenarios (in-ring weight churn plus
// component merges and splits), every generation the incremental
// pipeline publishes must be bit-identical to the first build of a
// fresh manager loaded with the same lists — a build from scratch, with
// no previous graph or clustering to carry — down to the graphs, the
// clusters with their IDs and the skipped counts. That reference must
// in turn register the serial scan's clusters in its emission order.
func TestIncrementalMatchesFullDifferential(t *testing.T) {
	const (
		seeds = 100
		rings = 8
		sz    = 12
		n     = rings * sz
		ticks = 4
	)
	var reusedSomewhere, merged, split bool
	for seed := int64(0); seed < seeds; seed++ {
		inc, err := New(n, WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		sc := newChurnScenario(seed, rings, sz)
		// fromScratch builds the reference for the lists as they stand.
		fromScratch := func() *Generation {
			t.Helper()
			ref, err := New(n, WithK(3))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for u := int32(0); u < n; u++ {
				if err := ref.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u]}); err != nil {
					t.Fatal(err)
				}
			}
			gen, err := ref.RotateAndWait(bg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := core.CentralizedTConn(gen.Graph, 3)
			got := gen.Anon.Registry().Clusters()
			if len(got) != len(want) {
				t.Fatalf("seed %d: from-scratch build registered %d clusters, serial scan %d", seed, len(got), len(want))
			}
			for i := range got {
				if got[i].T != want[i].T || !slices.Equal(got[i].Members, want[i].Members) {
					t.Fatalf("seed %d: from-scratch cluster %d = %+v, serial scan %+v", seed, i, *got[i], *want[i])
				}
			}
			return gen
		}
		var prev *Generation
		feed := func(users []int32) {
			t.Helper()
			for _, u := range users {
				if err := inc.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u]}); err != nil {
					t.Fatal(err)
				}
			}
			gen, err := inc.RotateAndWait(bg)
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffGenerations(gen, fromScratch()); msg != "" {
				t.Fatalf("seed %d epoch %d: %s", seed, gen.Epoch, msg)
			}
			if gen.ShardsRebuilt < gen.ShardsTotal {
				reusedSomewhere = true
			}
			if prev != nil {
				merged = merged || gen.ShardsTotal < prev.ShardsTotal
				split = split || gen.ShardsTotal > prev.ShardsTotal
			}
			prev = gen
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		feed(all)
		for tick := 0; tick < ticks; tick++ {
			users := sc.tick()
			if tick == ticks-1 {
				users = append(users, sc.splitOne()...) // tick alone rarely splits
			}
			feed(users)
		}
		inc.Close()
	}
	if !reusedSomewhere {
		t.Fatal("no generation spliced a single shard across 100 scenarios — the incremental path never engaged")
	}
	if !merged || !split {
		t.Fatalf("churn too tame: merged=%v split=%v", merged, split)
	}
}

// diffGenerations compares two published generations field by field,
// including every registered cluster. Empty string = identical.
func diffGenerations(a, b *Generation) string {
	if (a.BuildErr == nil) != (b.BuildErr == nil) {
		return fmt.Sprintf("build errors differ: %v vs %v", a.BuildErr, b.BuildErr)
	}
	if a.BuildErr != nil {
		return ""
	}
	if a.Edges != b.Edges || a.Clusters != b.Clusters || a.Skipped != b.Skipped {
		return fmt.Sprintf("bookkeeping differs: edges %d/%d clusters %d/%d skipped %d/%d",
			a.Edges, b.Edges, a.Clusters, b.Clusters, a.Skipped, b.Skipped)
	}
	if a.Profiled != b.Profiled || a.KMax != b.KMax || a.Degraded != b.Degraded {
		return fmt.Sprintf("profile accounting differs: profiled %d/%d kmax %d/%d degraded %d/%d",
			a.Profiled, b.Profiled, a.KMax, b.KMax, a.Degraded, b.Degraded)
	}
	if len(a.Meta) != len(b.Meta) {
		return fmt.Sprintf("cluster meta lengths differ: %d vs %d", len(a.Meta), len(b.Meta))
	}
	for i := range a.Meta {
		if a.Meta[i] != b.Meta[i] {
			return fmt.Sprintf("cluster meta %d differs: %+v vs %+v", i, a.Meta[i], b.Meta[i])
		}
	}
	// Row by row, order and length included: copy-on-write builds
	// assemble rows piecemeal, so an edge set can match while a row's
	// order or its carried edge count does not.
	for _, g := range []*wpg.Graph{a.Graph, b.Graph} {
		if err := g.Validate(); err != nil {
			return fmt.Sprintf("graph invalid: %v", err)
		}
	}
	if a.Graph.NumVertices() != b.Graph.NumVertices() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		return fmt.Sprintf("graph sizes differ: %d/%d vertices, %d/%d edges",
			a.Graph.NumVertices(), b.Graph.NumVertices(), a.Graph.NumEdges(), b.Graph.NumEdges())
	}
	for v := int32(0); v < int32(a.Graph.NumVertices()); v++ {
		if ar, br := a.Graph.Neighbors(v), b.Graph.Neighbors(v); !slices.Equal(ar, br) {
			return fmt.Sprintf("row %d differs: %v vs %v", v, ar, br)
		}
	}
	ac, bc := a.Anon.Registry().Clusters(), b.Anon.Registry().Clusters()
	if len(ac) != len(bc) {
		return fmt.Sprintf("cluster counts differ: %d vs %d", len(ac), len(bc))
	}
	for i := range ac {
		if ac[i].ID != bc[i].ID || ac[i].T != bc[i].T {
			return fmt.Sprintf("cluster %d: id/T %d/%d vs %d/%d", i, ac[i].ID, ac[i].T, bc[i].ID, bc[i].T)
		}
		if len(ac[i].Members) != len(bc[i].Members) {
			return fmt.Sprintf("cluster %d: %d members vs %d", i, len(ac[i].Members), len(bc[i].Members))
		}
		for j := range ac[i].Members {
			if ac[i].Members[j] != bc[i].Members[j] {
				return fmt.Sprintf("cluster %d member %d: %d vs %d", i, j, ac[i].Members[j], bc[i].Members[j])
			}
		}
	}
	return ""
}

// TestIncrementalRowsMatchFull is the graph-level row differential: a
// chain of copy-on-write BuildGraphIncremental steps over messy upload
// lists — duplicate peers, self ranks, one-sided and asymmetric ranks —
// must reproduce BuildGraph row by row (order and length included) and
// carry the right edge count, while every row no changed user can reach
// stays shared with the previous graph.
func TestIncrementalRowsMatchFull(t *testing.T) {
	const n = 60
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomList := func(u int32) []RankedPeer {
			var out []RankedPeer
			for i := rng.Intn(7); i > 0; i-- {
				peer := int32(rng.Intn(n))
				if rng.Intn(10) == 0 {
					peer = u
				}
				out = append(out, RankedPeer{Peer: peer, Rank: int32(1 + rng.Intn(5))})
				if rng.Intn(8) == 0 {
					out = append(out, RankedPeer{Peer: peer, Rank: int32(1 + rng.Intn(5))})
				}
			}
			return out
		}
		uploads := make(map[int32][]RankedPeer, n)
		for u := int32(0); u < n; u++ {
			if rng.Intn(10) > 0 {
				uploads[u] = randomList(u)
			}
		}
		// Make mutual pairs common: mirror a share of the entries.
		for u := int32(0); u < n; u++ {
			for _, pr := range uploads[u] {
				if other, ok := uploads[pr.Peer]; ok && pr.Peer != u && rng.Intn(2) == 0 {
					uploads[pr.Peer] = append(slices.Clone(other), RankedPeer{Peer: u, Rank: int32(1 + rng.Intn(5))})
				}
			}
		}
		prev, err := BuildGraph(n, uploads)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			changed := make(map[int32]struct{})
			for i := 1 + rng.Intn(8); i > 0; i-- {
				u := int32(rng.Intn(n))
				changed[u] = struct{}{}
				uploads[u] = randomList(u)
				for _, pr := range uploads[u] {
					if other, ok := uploads[pr.Peer]; ok && pr.Peer != u && rng.Intn(2) == 0 {
						uploads[pr.Peer] = append(slices.Clone(other), RankedPeer{Peer: u, Rank: int32(1 + rng.Intn(5))})
						changed[pr.Peer] = struct{}{}
					}
				}
			}
			got, err := BuildGraphIncremental(n, uploads, prev, changed)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			want, err := BuildGraph(n, uploads)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("seed %d step %d: incremental graph invalid: %v", seed, step, err)
			}
			if got.NumEdges() != want.NumEdges() {
				t.Fatalf("seed %d step %d: %d edges, want %d", seed, step, got.NumEdges(), want.NumEdges())
			}
			for v := int32(0); v < n; v++ {
				if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("seed %d step %d: row %d = %v, want %v", seed, step, v, got.Neighbors(v), want.Neighbors(v))
				}
				if !slices.Equal(prev.Neighbors(v), got.Neighbors(v)) {
					continue
				}
				if !wpg.SharedRow(prev, got, v) {
					t.Fatalf("seed %d step %d: unchanged row %d was copied", seed, step, v)
				}
			}
			prev = got
		}
	}
}

// TestIncrementalShardAccounting pins the shards=rebuilt/total numbers
// on a hand-checkable population: 4 separate rings, churn in exactly
// one of them, so one shard rebuilds and three splice.
func TestIncrementalShardAccounting(t *testing.T) {
	const rings, sz = 4, 8
	m, err := New(rings*sz, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lists := multiRing(rings, sz)
	for u, peers := range lists {
		if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	gen := m.Current()
	if gen.ShardsTotal != rings || gen.ShardsRebuilt != rings {
		t.Fatalf("first build shards = %d/%d, want %d/%d", gen.ShardsRebuilt, gen.ShardsTotal, rings, rings)
	}

	// Swap ranks for one user of ring 2: only that component is dirty.
	u := int32(2 * sz)
	peers := append([]RankedPeer(nil), lists[u]...)
	peers[0].Rank, peers[1].Rank = peers[1].Rank, peers[0].Rank
	if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	gen = m.Current()
	if gen.ShardsTotal != rings || gen.ShardsRebuilt != 1 {
		t.Fatalf("churned build shards = %d/%d, want 1/%d", gen.ShardsRebuilt, gen.ShardsTotal, rings)
	}
	if !strings.Contains(gen.transcriptLine(), fmt.Sprintf("shards=1/%d", rings)) {
		t.Errorf("transcript line %q lacks the shard accounting", gen.transcriptLine())
	}
	if st := m.Status(); st.ShardsTotal != rings || st.ShardsRebuilt != 1 {
		t.Errorf("status shards = %d/%d, want 1/%d", st.ShardsRebuilt, st.ShardsTotal, rings)
	}
}

func TestEqualRanks(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []RankedPeer
		want bool
	}{
		{"nil vs nil", nil, nil, true},
		{"nil vs empty", nil, []RankedPeer{}, true},
		{"identical", []RankedPeer{{1, 1}, {2, 2}}, []RankedPeer{{1, 1}, {2, 2}}, true},
		{"permuted", []RankedPeer{{1, 1}, {2, 2}}, []RankedPeer{{2, 2}, {1, 1}}, false},
		{"truncated", []RankedPeer{{1, 1}, {2, 2}}, []RankedPeer{{1, 1}}, false},
		{"rank differs", []RankedPeer{{1, 1}}, []RankedPeer{{1, 2}}, false},
		{"peer differs", []RankedPeer{{1, 1}}, []RankedPeer{{3, 1}}, false},
	} {
		if got := equalRanks(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: equalRanks = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBuildGraphEdgeCases(t *testing.T) {
	// Self-ranks never form an edge, even when "mutual" with itself.
	g, err := BuildGraph(2, map[int32][]RankedPeer{
		0: {{Peer: 0, Rank: 1}},
		1: {{Peer: 1, Rank: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("self-ranks: %d edges, want 0", g.NumEdges())
	}
	// An out-of-range peer id that survives into a mutual pair must fail
	// graph construction instead of corrupting it.
	if _, err := BuildGraph(2, map[int32][]RankedPeer{
		0: {{Peer: 5, Rank: 1}},
		5: {{Peer: 0, Rank: 1}},
	}); err == nil {
		t.Error("out-of-range mutual pair built a graph")
	}
	// Duplicate entries for the same peer: the minimum rank wins, in
	// either direction.
	g, err = BuildGraph(2, map[int32][]RankedPeer{
		0: {{Peer: 1, Rank: 5}, {Peer: 1, Rank: 2}},
		1: {{Peer: 0, Rank: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.Weight(0, 1); !ok || w != 2 {
		t.Errorf("duplicate entries: weight(0,1) = %d,%v, want 2,true", w, ok)
	}
}

// TestBuildGraphIncrementalFallsBack: a nil previous graph or a
// population mismatch must silently take the full-build path.
func TestBuildGraphIncrementalFallsBack(t *testing.T) {
	uploads := ringUploads(6)
	want, err := BuildGraph(6, uploads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildGraphIncremental(6, uploads, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Errorf("nil prev: %d edges, want %d", got.NumEdges(), want.NumEdges())
	}
	smaller, err := BuildGraph(4, ringUploads(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err = BuildGraphIncremental(6, uploads, smaller, map[int32]struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Errorf("mismatched prev: %d edges, want %d", got.NumEdges(), want.NumEdges())
	}
}

// TestConcurrentChurnIncremental races uploaders, an explicit rotator,
// and cloakers against the incremental build path (run under -race).
// Served clusters must always satisfy k-anonymity and contain the host.
func TestConcurrentChurnIncremental(t *testing.T) {
	const rings, sz = 6, 10
	const n = rings * sz
	m, err := New(n, WithK(3), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lists := multiRing(rings, sz)
	for u, peers := range lists {
		if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}

	var uploaders, producers, cloakers sync.WaitGroup
	stop := make(chan struct{})
	// Uploaders churn ranks inside random rings.
	for w := 0; w < 3; w++ {
		uploaders.Add(1)
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			defer uploaders.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for i := 0; i < 200; i++ {
				u := int32(rng.Intn(n))
				peers := append([]RankedPeer(nil), lists[u]...)
				peers[0].Rank = int32(1 + rng.Intn(4))
				if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("upload: %v", err)
					return
				}
			}
		}(w)
	}
	// Rotator forces incremental rebuilds throughout the churn. Its
	// final rotate waits for the uploaders, so at least one rotate sees
	// new uploads even when the scheduler runs the first 40 before any.
	producers.Add(1)
	go func() {
		defer producers.Done()
		for i := 0; i <= 40; i++ {
			if i == 40 {
				uploaders.Wait()
			}
			if _, err := m.Rotate(bg); err != nil &&
				!errors.Is(err, ErrNoNewUploads) && !errors.Is(err, ErrClosed) {
				t.Errorf("rotate: %v", err)
				return
			}
		}
	}()
	// Cloakers read whatever generation is current.
	for w := 0; w < 3; w++ {
		cloakers.Add(1)
		go func(w int) {
			defer cloakers.Done()
			rng := rand.New(rand.NewSource(int64(400 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				host := int32(rng.Intn(n))
				cres, err := m.Cloak(bg, host)
				if err != nil {
					if strings.Contains(err.Error(), "smaller than k") {
						continue
					}
					t.Errorf("cloak(%d): %v", host, err)
					return
				}
				c := cres.Cluster
				if c.Size() < 3 || !c.Contains(host) {
					t.Errorf("bad cluster %v for host %d", c.Members, host)
					return
				}
			}
		}(w)
	}

	producers.Wait()
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	close(stop)
	cloakers.Wait()
	if st := m.Status(); st.Builds < 2 {
		t.Errorf("only %d builds during the churn", st.Builds)
	}
}

// genSnapshot is a deep copy of what a published generation serves:
// every adjacency row and every registered cluster.
type genSnapshot struct {
	gen      *Generation
	rows     [][]wpg.Edge
	clusters []core.Cluster
	assign   []int32
}

func snapshotGeneration(gen *Generation) genSnapshot {
	n := gen.Graph.NumVertices()
	s := genSnapshot{gen: gen, rows: make([][]wpg.Edge, n), assign: make([]int32, n)}
	for v := int32(0); v < int32(n); v++ {
		s.rows[v] = slices.Clone(gen.Graph.Neighbors(v))
		s.assign[v] = -1
		if c, ok := gen.Anon.Registry().ClusterOf(v); ok {
			s.assign[v] = c.ID
		}
	}
	for _, c := range gen.Anon.Registry().Clusters() {
		s.clusters = append(s.clusters, core.Cluster{ID: c.ID, Members: slices.Clone(c.Members), T: c.T})
	}
	return s
}

func (s genSnapshot) diff() string {
	g, reg := s.gen.Graph, s.gen.Anon.Registry()
	for v, row := range s.rows {
		if got := g.Neighbors(int32(v)); !slices.Equal(got, row) {
			return fmt.Sprintf("row %d changed: %v -> %v", v, row, got)
		}
	}
	cs := reg.Clusters()
	if len(cs) != len(s.clusters) {
		return fmt.Sprintf("%d clusters -> %d", len(s.clusters), len(cs))
	}
	for i, c := range cs {
		if c.ID != s.clusters[i].ID || c.T != s.clusters[i].T || !slices.Equal(c.Members, s.clusters[i].Members) {
			return fmt.Sprintf("cluster %d changed: %+v -> %+v", i, s.clusters[i], *c)
		}
	}
	for v, id := range s.assign {
		got := int32(-1)
		if c, ok := reg.ClusterOf(int32(v)); ok {
			got = c.ID
		}
		if got != id {
			return fmt.Sprintf("user %d moved from cluster %d to %d", v, id, got)
		}
	}
	return ""
}

// TestPublishedGenerationsStayImmutable pins the copy-on-write
// contract: generations share rows and member lists, so no build may
// write into anything an earlier generation published. Every published
// generation is snapshotted, then churn keeps building incrementally —
// weight churn, component merges and splits, profile changes — while
// readers cloak and walk the published rows concurrently (under -race
// a write into a shared row is also a reported race). At the end every
// snapshot must still match its generation, and consecutive
// generations must actually have shared rows.
func TestPublishedGenerationsStayImmutable(t *testing.T) {
	const (
		rings = 8
		sz    = 12
		n     = rings * sz
		ticks = 24
	)
	m, err := New(n, WithK(3), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sc := newChurnScenario(11, rings, sz)
	publish := func(users []int32, prof map[int32]*core.Profile) genSnapshot {
		t.Helper()
		for _, u := range users {
			if err := m.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u], Profile: prof[u]}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Rotate(bg); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(bg); err != nil {
			t.Fatal(err)
		}
		gen := m.Current()
		if gen.BuildErr != nil {
			t.Fatal(gen.BuildErr)
		}
		return snapshotGeneration(gen)
	}

	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	snaps := []genSnapshot{publish(all, nil)}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				host := int32(rng.Intn(n))
				if res, err := m.Cloak(bg, host); err == nil && !res.Cluster.Contains(host) {
					t.Errorf("cloak(%d) = %v", host, res.Cluster.Members)
					return
				}
				var sum int32
				for _, e := range m.Current().Graph.Neighbors(host) {
					sum += e.W
				}
				_ = sum
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(3))
	var merged, split, profiled bool
	for tick := 0; tick < ticks; tick++ {
		users := sc.tick()
		if tick%4 == 3 {
			users = append(users, sc.splitOne()...)
		}
		prof := map[int32]*core.Profile{}
		if tick%3 == 1 {
			u := int32(rng.Intn(n))
			k := int32(4 + tick%2)
			if tick%6 == 4 {
				k = 0 // back to the service default
			}
			prof[u] = &core.Profile{K: k}
			users = append(users, u)
		}
		snap := publish(users, prof)
		prev := snaps[len(snaps)-1].gen
		merged = merged || snap.gen.ShardsTotal < prev.ShardsTotal
		split = split || snap.gen.ShardsTotal > prev.ShardsTotal
		profiled = profiled || snap.gen.Profiled > 0
		shared := 0
		for v := int32(0); v < n; v++ {
			if len(prev.Graph.Neighbors(v)) > 0 && wpg.SharedRow(prev.Graph, snap.gen.Graph, v) {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("epoch %d shares no row with epoch %d", snap.gen.Epoch, prev.Epoch)
		}
		snaps = append(snaps, snap)
	}
	close(stop)
	readers.Wait()
	if !merged || !split || !profiled {
		t.Fatalf("churn too tame: merged=%v split=%v profiled=%v", merged, split, profiled)
	}
	for _, s := range snaps {
		if msg := s.diff(); msg != "" {
			t.Fatalf("epoch %d was written after it published: %s", s.gen.Epoch, msg)
		}
	}
}
