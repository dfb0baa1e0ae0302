package epoch

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonexposure/internal/core"
	"nonexposure/internal/metrics"
)

var bg = context.Background()

// ringUploads returns each user's ranked peers on a ring: nearest
// neighbor at rank 1, the other side at rank 2. Every adjacent pair is
// mutual, so BuildGraph yields an n-cycle.
func ringUploads(n int) map[int32][]RankedPeer {
	out := make(map[int32][]RankedPeer, n)
	for i := 0; i < n; i++ {
		out[int32(i)] = []RankedPeer{
			{Peer: int32((i + 1) % n), Rank: 1},
			{Peer: int32((i - 1 + n) % n), Rank: 2},
		}
	}
	return out
}

// uploadRing pushes a full ring population into the manager.
func uploadRing(t *testing.T, m *Manager, n int) {
	t.Helper()
	for u, peers := range ringUploads(n) {
		if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildGraphMutualEdges(t *testing.T) {
	g, err := BuildGraph(6, ringUploads(6))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 {
		t.Errorf("ring of 6: %d edges, want 6", g.NumEdges())
	}
	// Non-mutual claims produce no edge.
	g, err = BuildGraph(3, map[int32][]RankedPeer{
		0: {{Peer: 1, Rank: 1}},
		2: {{Peer: 0, Rank: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("one-sided uploads: %d edges, want 0", g.NumEdges())
	}
	// Self-references are ignored, mutual weight is the min rank.
	g, err = BuildGraph(2, map[int32][]RankedPeer{
		0: {{Peer: 0, Rank: 1}, {Peer: 1, Rank: 3}},
		1: {{Peer: 1, Rank: 2}, {Peer: 0, Rank: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.Weight(0, 1); !ok || w != 1 {
		t.Errorf("weight(0,1) = %d,%v, want 1,true", w, ok)
	}
}

func TestRotatePublishesGeneration(t *testing.T) {
	em := metrics.NewEpochMetrics()
	m, err := New(12, WithK(3), WithMetrics(em))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Nothing published yet: v0 clients must still see "not frozen".
	if _, err := m.Cloak(bg, 0); !errors.Is(err, ErrNotReady) ||
		!strings.Contains(err.Error(), "not frozen") {
		t.Fatalf("cloak before publish = %v", err)
	}

	uploadRing(t, m, 12)
	ep, err := m.Rotate(bg)
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 {
		t.Errorf("first epoch = %d, want 1", ep)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	gen := m.Current()
	if gen == nil || gen.Epoch != 1 || gen.BuildErr != nil {
		t.Fatalf("current generation = %+v", gen)
	}
	if gen.Trigger != TriggerRotate || gen.UploadsIn != 12 || gen.Changed != 12 {
		t.Errorf("generation bookkeeping = %+v", gen)
	}
	if gen.Edges != 12 {
		t.Errorf("ring edges = %d, want 12", gen.Edges)
	}

	res, err := m.Cloak(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, cost, servedBy := res.Cluster, res.Cost, res.Epoch
	if servedBy != 1 {
		t.Errorf("served by epoch %d, want 1", servedBy)
	}
	if cost != 12 {
		t.Errorf("first cloak cost = %d, want 12 (uploads in the epoch)", cost)
	}
	if !c.Contains(0) || c.Size() < 3 {
		t.Errorf("cluster = %v", c.Members)
	}
	// Only the first request per generation is billed.
	if res, err := m.Cloak(bg, 1); err != nil || res.Cost != 0 {
		t.Errorf("second cloak cost=%d err=%v, want 0/nil", res.Cost, err)
	}

	if s := em.Snapshot(); s.Builds != 1 || s.Swaps != 1 || s.BuildFails != 0 {
		t.Errorf("metrics = %+v", s)
	}
}

// TestConcurrentFirstCloaksBilledOnce: when 32 goroutines make the first
// cloaks of a freshly published generation at once, exactly one of them
// is billed the generation's uploads, and so again for the next
// generation.
func TestConcurrentFirstCloaksBilledOnce(t *testing.T) {
	m, err := New(12, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	uploadRing(t, m, 12)
	for round := 0; round < 2; round++ {
		if round > 0 {
			// Re-upload three users with their ranks swapped.
			for u := int32(0); u < 3; u++ {
				peers := []RankedPeer{{Peer: (u + 11) % 12, Rank: 1}, {Peer: u + 1, Rank: 2}}
				if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil {
					t.Fatal(err)
				}
			}
		}
		gen, err := m.RotateAndWait(bg)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 32
		var (
			wg     sync.WaitGroup
			billed atomic.Int64
			total  atomic.Int64
			failed atomic.Int64
		)
		start := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(host int32) {
				defer wg.Done()
				<-start
				res, err := m.Cloak(bg, host)
				if err != nil || res.Epoch != gen.Epoch {
					failed.Add(1)
					return
				}
				if res.Cost > 0 {
					billed.Add(1)
					total.Add(int64(res.Cost))
				}
			}(int32(i % 12))
		}
		close(start)
		wg.Wait()
		if failed.Load() != 0 {
			t.Fatalf("epoch %d: %d cloaks failed or left the generation", gen.Epoch, failed.Load())
		}
		if billed.Load() != 1 || total.Load() != int64(gen.UploadsIn) {
			t.Errorf("epoch %d: %d cloaks billed %d in total, want 1 billed %d (UploadsIn)",
				gen.Epoch, billed.Load(), total.Load(), gen.UploadsIn)
		}
	}
}

func TestRotateSemantics(t *testing.T) {
	m, err := New(8, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The first rotate is always allowed, even with zero uploads (the
	// legacy "freeze an empty server" case).
	if _, err := m.Rotate(bg); err != nil {
		t.Fatalf("empty first rotate: %v", err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	// A second rotate with nothing new is pointless and rejected.
	if _, err := m.Rotate(bg); !errors.Is(err, ErrNoNewUploads) {
		t.Fatalf("idle rotate = %v, want ErrNoNewUploads", err)
	}
	// New uploads re-arm it.
	uploadRing(t, m, 8)
	ep, err := m.Rotate(bg)
	if err != nil || ep != 2 {
		t.Fatalf("rotate after uploads = %d, %v", ep, err)
	}
}

func TestPolicyCountTrigger(t *testing.T) {
	m, err := New(10, WithK(2), WithPolicy(Policy{EveryUploads: 10}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	uploadRing(t, m, 10) // exactly 10 uploads → auto-trigger
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	gen := m.Current()
	if gen == nil || gen.Trigger != TriggerCount || gen.Epoch != 1 {
		t.Fatalf("generation = %+v", gen)
	}
	if st := m.Status(); st.SinceTrigger != 0 || !st.Published {
		t.Errorf("status after trigger = %+v", st)
	}
}

func TestPolicyFracTriggerIgnoresUnchangedReuploads(t *testing.T) {
	const n = 10
	m, err := New(n, WithK(2), WithPolicy(Policy{ChangedFrac: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ring := ringUploads(n)
	// Four distinct changed users: below the 50% threshold.
	for i := int32(0); i < 4; i++ {
		if err := m.Upload(bg, UploadRequest{User: i, Peers: ring[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-uploading identical rankings must not count as change.
	for i := int32(0); i < 4; i++ {
		if err := m.Upload(bg, UploadRequest{User: i, Peers: ring[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Status(); st.ChangedSinceTrigger != 4 || st.UploadsSeen != 8 {
		t.Fatalf("status = %+v", st)
	}
	if m.Current() != nil {
		t.Fatal("triggered below threshold")
	}
	// The fifth distinct user tips 5/10 >= 0.5.
	if err := m.Upload(bg, UploadRequest{User: 4, Peers: ring[4]}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	gen := m.Current()
	if gen == nil || gen.Trigger != TriggerFrac || gen.Changed != 5 {
		t.Fatalf("generation = %+v", gen)
	}
}

func TestUploadValidation(t *testing.T) {
	m, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Upload(bg, UploadRequest{User: 4, Peers: nil}); err == nil {
		t.Error("out-of-range user accepted")
	}
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: []RankedPeer{{Peer: 9, Rank: 1}}}); err == nil {
		t.Error("out-of-range peer accepted")
	}
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: []RankedPeer{{Peer: 1, Rank: 0}}}); err == nil {
		t.Error("zero rank accepted")
	}
	if _, err := New(0); err == nil {
		t.Error("empty population accepted")
	}
	if _, err := New(4, WithK(0)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(4, WithPolicy(Policy{ChangedFrac: 1.5})); err == nil {
		t.Error("ChangedFrac > 1 accepted")
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	m, err := New(6, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	uploadRing(t, m, 6)
	if _, err := m.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: nil}); !errors.Is(err, ErrClosed) {
		t.Errorf("upload after close = %v", err)
	}
	if _, err := m.Rotate(bg); !errors.Is(err, ErrClosed) {
		t.Errorf("rotate after close = %v", err)
	}
	// The published generation keeps serving.
	if _, err := m.Cloak(bg, 0); err != nil {
		t.Errorf("cloak after close = %v", err)
	}
}

func TestSyncHonorsContext(t *testing.T) {
	m, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(bg)
	cancel()
	// A dead ctx errors promptly even when the pipeline is idle — context
	// errors always win over "nothing to do".
	if err := m.Sync(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("idle sync with dead ctx = %v, want context.Canceled", err)
	}
	// A live ctx on an idle pipeline returns immediately.
	if err := m.Sync(bg); err != nil {
		t.Errorf("idle sync = %v, want nil", err)
	}
	// With a build pending, a dead ctx still returns ctx.Err(), and a
	// ctx that dies while Sync waits ends the wait. Fake a triggered
	// generation whose build never finishes (its done channel open, as
	// triggerLocked leaves it) without starting a builder.
	pending := &Generation{Epoch: 1, done: make(chan struct{})}
	m.mu.Lock()
	m.latest = pending
	m.mu.Unlock()
	if err := m.Sync(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("sync with dead ctx and pending work = %v", err)
	}
	short, stop := context.WithTimeout(bg, 10*time.Millisecond)
	defer stop()
	if err := m.Sync(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("sync past its deadline with pending work = %v, want context.DeadlineExceeded", err)
	}
	// A dead ctx must also fail Upload/Rotate before the lock.
	if err := m.Upload(ctx, UploadRequest{User: 0, Peers: nil}); !errors.Is(err, context.Canceled) {
		t.Errorf("upload with dead ctx = %v, want context.Canceled", err)
	}
	if _, err := m.Rotate(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("rotate with dead ctx = %v, want context.Canceled", err)
	}
	close(pending.done)
	if err := m.Sync(bg); err != nil {
		t.Errorf("sync once the pending build finished = %v, want nil", err)
	}
}

// TestSyncWaitsBehindQueuedBuilds: one upload loop fires the count
// policy twice, so the second epoch queues behind the first, and Sync
// returns only once the second has published and nothing is pending.
func TestSyncWaitsBehindQueuedBuilds(t *testing.T) {
	const n = 2000
	m, err := New(n, WithK(5), WithPolicy(Policy{EveryUploads: n}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ring := ringUploads(n)
	for round := 0; round < 2; round++ {
		for u := int32(0); u < n; u++ {
			if err := m.Upload(bg, UploadRequest{User: u, Peers: ring[u]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.Epoch != 2 || st.Pending != 0 || st.Builds != 2 {
		t.Fatalf("status after Sync = epoch %d pending %d builds %d, want epoch 2 pending 0 builds 2",
			st.Epoch, st.Pending, st.Builds)
	}
}

// TestCloseReleasesParkedSync: a Sync parked behind a queued build is
// released when Close drops that build, while the build in flight is
// still running; a Sync parked on the in-flight build returns once
// that build has finished and counted. The area estimator holds the
// first build in flight.
func TestCloseReleasesParkedSync(t *testing.T) {
	const n = 12
	ring := ringUploads(n)
	prof := &core.Profile{MaxArea: 10} // non-default, so the build calls the estimator
	start := func(t *testing.T) (*Manager, chan struct{}) {
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		est := func([]int32) (float64, bool) {
			once.Do(func() { close(entered) })
			<-release
			return 1, true
		}
		m, err := New(n, WithK(2), WithAreaEstimator(est))
		if err != nil {
			t.Fatal(err)
		}
		for u := int32(0); u < n; u++ {
			if err := m.Upload(bg, UploadRequest{User: u, Peers: ring[u], Profile: prof}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Rotate(bg); err != nil {
			t.Fatal(err)
		}
		<-entered
		return m, release
	}
	type result struct {
		err    error
		builds uint64
	}
	park := func(m *Manager) chan result {
		out := make(chan result, 1)
		go func() {
			err := m.Sync(bg)
			out <- result{err, m.Status().Builds}
		}()
		return out
	}

	t.Run("queued", func(t *testing.T) {
		m, release := start(t)
		defer close(release)
		if err := m.Upload(bg, UploadRequest{User: 0, Peers: ring[1]}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Rotate(bg); err != nil {
			t.Fatal(err)
		}
		parked := park(m) // behind epoch 2, queued behind the held epoch 1
		m.Close()
		select {
		case r := <-parked:
			if r.err != nil || r.builds != 0 {
				t.Errorf("Sync released by Close = %v with %d builds done, want nil with the held build still running", r.err, r.builds)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not release a Sync parked behind the build it dropped")
		}
	})

	t.Run("in-flight", func(t *testing.T) {
		m, release := start(t)
		parked := park(m) // on epoch 1, held in flight
		m.Close()
		close(release)
		r := <-parked
		if r.err != nil || r.builds != 1 {
			t.Errorf("Sync on the in-flight build = %v with %d builds done, want nil once it has finished", r.err, r.builds)
		}
	})
}

// TestPendingCountsEachTriggerOnce pins that Status().Pending and the
// pending-builds gauge read one count: each triggered epoch counts once
// from its trigger until its build finishes, whether it is queued,
// taken by builderLoop, or in flight. The area estimator holds the
// first build in flight.
func TestPendingCountsEachTriggerOnce(t *testing.T) {
	const n = 12
	ring := ringUploads(n)
	prof := &core.Profile{MaxArea: 10} // non-default, so the build calls the estimator
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	est := func([]int32) (float64, bool) {
		once.Do(func() { close(entered) })
		<-release
		return 1, true
	}
	em := metrics.NewEpochMetrics()
	m, err := New(n, WithK(2), WithAreaEstimator(est), WithMetrics(em))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	check := func(when string, want int) {
		t.Helper()
		if st, gauge := m.Status().Pending, em.Snapshot().Pending; st != want || gauge != want {
			t.Errorf("%s: Status().Pending = %d, gauge = %d, want %d", when, st, gauge, want)
		}
	}
	for u := int32(0); u < n; u++ {
		if err := m.Upload(bg, UploadRequest{User: u, Peers: ring[u], Profile: prof}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	check("after the first Rotate", 1)
	<-entered
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: ring[1], Profile: prof}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	check("build 1 in flight, epoch 2 queued", 2)
	close(release)
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	check("after Sync", 0)
}

// scripted is a deterministic upload script: a fixed sequence of
// (user, peers) derived from a seeded PRNG, with churn that re-ranks a
// user's view of the ring.
type scriptedUpload struct {
	user  int32
	peers []RankedPeer
}

func uploadScript(seed int64, n, steps int) []scriptedUpload {
	rng := rand.New(rand.NewSource(seed))
	base := ringUploads(n)
	script := make([]scriptedUpload, 0, n+steps)
	for i := 0; i < n; i++ {
		script = append(script, scriptedUpload{int32(i), base[int32(i)]})
	}
	for s := 0; s < steps; s++ {
		u := int32(rng.Intn(n))
		peers := append([]RankedPeer(nil), base[u]...)
		if rng.Intn(2) == 0 { // swap the two ranks: a real change
			peers[0].Rank, peers[1].Rank = peers[1].Rank, peers[0].Rank
		}
		script = append(script, scriptedUpload{u, peers})
	}
	return script
}

func runScript(t *testing.T, script []scriptedUpload, n int, opts ...Option) []string {
	t.Helper()
	m, err := New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, su := range script {
		if err := m.Upload(bg, UploadRequest{User: su.user, Peers: su.peers}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Rotate(bg); err != nil && !errors.Is(err, ErrNoNewUploads) {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	return m.Transcript()
}

// TestTranscriptDeterministic is the acceptance gate: the same upload
// sequence under the same policy must produce a byte-identical epoch
// transcript on every run, even though builds happen on a background
// goroutine.
func TestTranscriptDeterministic(t *testing.T) {
	const n = 40
	script := uploadScript(7, n, 300)
	opts := []Option{WithK(3), WithWorkers(4), WithPolicy(Policy{EveryUploads: 60, ChangedFrac: 0.4})}
	a := runScript(t, script, n, opts...)
	b := runScript(t, script, n, opts...)
	if len(a) == 0 {
		t.Fatal("empty transcript")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("transcripts differ:\nrun A:\n%s\nrun B:\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	// Epoch numbers are sequential and triggers recorded.
	for i, line := range a {
		if !strings.Contains(line, "epoch=") || !strings.Contains(line, "trigger=") {
			t.Errorf("transcript line %d malformed: %q", i, line)
		}
	}
	t.Logf("deterministic transcript of %d epochs, last: %s", len(a), a[len(a)-1])
}

// TestConcurrentUploadsAndCloaksAcrossSwaps hammers the manager with
// parallel uploaders and cloakers while generations swap underneath
// (run under -race). Invariants: cloaks never fail once the first
// generation publishes, the observed epoch never goes backwards per
// reader, and every served cluster satisfies k-anonymity.
func TestConcurrentUploadsAndCloaksAcrossSwaps(t *testing.T) {
	const n = 60
	m, err := New(n, WithK(3), WithWorkers(2), WithPolicy(Policy{EveryUploads: n}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Publish a first generation so cloakers have something to read.
	uploadRing(t, m, n)
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}

	var (
		uploaders sync.WaitGroup
		cloakers  sync.WaitGroup
		served    atomic.Int64
		failures  atomic.Int64
		maxEpoch  atomic.Uint64
	)
	stop := make(chan struct{})

	// Uploaders: a bounded number of rank-churn rounds, each round worth
	// one policy trigger across the four goroutines.
	const rounds = 10
	for w := 0; w < 4; w++ {
		uploaders.Add(1)
		go func(w int) {
			defer uploaders.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds*n/4; i++ {
				u := int32(rng.Intn(n))
				peers := []RankedPeer{
					{Peer: (u + 1) % n, Rank: int32(1 + rng.Intn(3))},
					{Peer: (u - 1 + n) % n, Rank: int32(1 + rng.Intn(3))},
				}
				if err := m.Upload(bg, UploadRequest{User: u, Peers: peers}); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("upload: %v", err)
					return
				}
			}
		}(w)
	}
	// Cloakers: epoch must be monotone per goroutine, clusters valid.
	for w := 0; w < 4; w++ {
		cloakers.Add(1)
		go func(w int) {
			defer cloakers.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				host := int32(rng.Intn(n))
				res, err := m.Cloak(bg, host)
				if err != nil {
					// Undersized components can appear as churn splits the
					// ring; that error is legitimate. Anything else is not.
					if !strings.Contains(err.Error(), "smaller than k") {
						failures.Add(1)
						t.Errorf("cloak(%d): %v", host, err)
						return
					}
					continue
				}
				c, ep := res.Cluster, res.Epoch
				if ep < last {
					t.Errorf("epoch went backwards: %d after %d", ep, last)
					return
				}
				last = ep
				served.Add(1)
				if c.Size() < 3 || !c.Contains(host) {
					t.Errorf("epoch %d: bad cluster %v for %d", ep, c.Members, host)
					return
				}
				if ep > maxEpoch.Load() {
					maxEpoch.Store(ep)
				}
			}
		}(w)
	}

	uploaders.Wait()
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	// Every triggered epoch has published; the cloakers are still
	// hammering, so the final generation must now be visible to them.
	final := m.Current().Epoch
	deadline := time.Now().Add(5 * time.Second)
	for maxEpoch.Load() < final && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	cloakers.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d cloak failures", failures.Load())
	}
	if got := maxEpoch.Load(); got < 2 || got < final {
		t.Errorf("cloakers reached epoch %d, want the final epoch %d (>= 2)", got, final)
	}
	if served.Load() == 0 {
		t.Error("no cloak was served during the churn")
	}
	st := m.Status()
	if st.Builds < 2 || st.Swaps < 2 {
		t.Errorf("status after hammer = %+v", st)
	}
	t.Logf("%d cloaks served across %d epochs (%d builds)", served.Load(), maxEpoch.Load(), st.Builds)
}

// TestStatusAfterRotations: after four rotations the transcript holds
// all four lines and Status reports the fourth epoch, every build a
// swap, and nothing pending.
func TestStatusAfterRotations(t *testing.T) {
	const n = 6
	m, err := New(n, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ring := ringUploads(n)
	for round := 0; round < 4; round++ {
		for i := int32(0); i < n; i++ {
			peers := append([]RankedPeer(nil), ring[i]...)
			peers[0].Rank = int32(1 + round) // force a change each round
			if err := m.Upload(bg, UploadRequest{User: i, Peers: peers}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Rotate(bg); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if tr := m.Transcript(); len(tr) != 4 {
		t.Fatalf("transcript = %d lines, want 4", len(tr))
	}
	st := m.Status()
	if st.Epoch != 4 || st.Builds != 4 || st.Swaps != 4 || st.Pending != 0 {
		t.Errorf("status = %+v", st)
	}
	if st.Policy.String() != "manual" {
		t.Errorf("policy string = %q", st.Policy.String())
	}
}

// TestStatusEpochMatchesCounts pins that Status reads a build's
// generation and its counters together. With no build failing, epoch N
// is the N-th build and the N-th swap, so every Status — including one
// read while a build publishes — must report Epoch == Swaps == Builds.
func TestStatusEpochMatchesCounts(t *testing.T) {
	const n, rotations = 60, 500
	m, err := New(n, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	uploadRing(t, m, n)
	ring := ringUploads(n)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var reads, torn atomic.Int64
	var first atomic.Pointer[Status]
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := m.Status()
				reads.Add(1)
				if st.Epoch != st.Swaps || st.Swaps != st.Builds {
					torn.Add(1)
					first.CompareAndSwap(nil, &st)
				}
			}
		}()
	}
	var rotateErr error
	for r := 0; r < rotations && rotateErr == nil; r++ {
		if r > 0 {
			peers := append([]RankedPeer(nil), ring[0]...)
			peers[0].Rank = int32(1 + r%2) // a real change every rotation
			rotateErr = m.Upload(bg, UploadRequest{User: 0, Peers: peers})
		}
		if rotateErr == nil {
			_, rotateErr = m.RotateAndWait(bg)
		}
	}
	close(stop)
	readers.Wait()
	if rotateErr != nil {
		t.Fatal(rotateErr)
	}
	if st := first.Load(); st != nil {
		t.Fatalf("%d of %d Status reads paired an epoch with another build's counts, first: epoch=%d swaps=%d builds=%d",
			torn.Load(), reads.Load(), st.Epoch, st.Swaps, st.Builds)
	}
}

// TestLiveHeapFlatAcrossBuilds pins that a manager keeps nothing per
// build beyond its transcript line: through 200 builds of a churning
// 2,000-user population, the live heap after build 200 may exceed the
// one after build 40 by at most 1 MiB. A manager that retains past
// generations grows by each one's graph and clustering.
func TestLiveHeapFlatAcrossBuilds(t *testing.T) {
	const rings, sz, builds = 200, 10, 200
	const n = rings * sz
	m, err := New(n, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sc := newChurnScenario(5, rings, sz)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	users := make([]int32, n)
	for i := range users {
		users[i] = int32(i)
	}
	var early uint64
	for b := 1; b <= builds; b++ {
		for _, u := range users {
			if err := m.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u]}); err != nil {
				t.Fatal(err)
			}
		}
		gen, err := m.RotateAndWait(bg)
		if err != nil {
			t.Fatal(err)
		}
		if gen.BuildErr != nil {
			t.Fatalf("build %d: %v", b, gen.BuildErr)
		}
		if b == 40 {
			early = liveHeap()
		}
		users = sc.tick()
	}
	late := liveHeap()
	t.Logf("live heap after build 40: %d KB, after build %d: %d KB", early>>10, builds, late>>10)
	if late > early+1<<20 {
		t.Fatalf("live heap grew from %d KB after build 40 to %d KB after build %d", early>>10, late>>10, builds)
	}
}

// TestRotateAndWaitLeavesNothingPending pins that a synchronous
// rotation returns only once the pipeline has stopped counting its
// build: with nothing queued behind it, a Status read straight after
// RotateAndWait reports Pending 0. A freeze's reply is built from that
// Status.
func TestRotateAndWaitLeavesNothingPending(t *testing.T) {
	const n = 64
	m, err := New(n, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	uploadRing(t, m, n)
	ring := ringUploads(n)
	for round := 0; round < 200; round++ {
		if round > 0 {
			if err := m.Upload(bg, UploadRequest{User: 0, Peers: ring[0]}); err != nil {
				t.Fatal(err)
			}
		}
		gen, err := m.RotateAndWait(bg)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.Status(); st.Pending != 0 || st.Epoch != gen.Epoch {
			t.Fatalf("round %d: status after RotateAndWait = epoch %d pending %d, want epoch %d pending 0",
				round, st.Epoch, st.Pending, gen.Epoch)
		}
	}
}
