package epoch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonexposure/internal/core"
	"nonexposure/internal/metrics"
)

// TestBufferedMatchesDirectDifferential is the tentpole acceptance gate
// for buffered ingestion: across 100 seeded churn scenarios — including
// interleaved rotates, coalesced re-uploads of the same user inside one
// buffer epoch, A→B→A list chains that end where they started, and
// profile transitions (k_i raised then lowered, MaxArea set and
// withdrawn, restated as a no-op, omitted entirely so the sticky stored
// profile survives, and first set mid-chain after a profile-less link)
// folded into the same chains — a buffered pipeline must publish
// generations bit-identical to a direct pipeline fed the same upload
// sequence: same graphs, same clusters with the same IDs, same profile
// accounting, and the exact same transcript (trigger reasons, upload
// counts, shard accounting and all).
func TestBufferedMatchesDirectDifferential(t *testing.T) {
	const (
		seeds = 100
		rings = 6
		sz    = 10
		n     = rings * sz
		ticks = 4
	)
	var coalescedTotal uint64
	for seed := int64(0); seed < seeds; seed++ {
		shards := 1 + int(seed%4)
		em := metrics.NewEpochMetrics()
		buf, err := New(n, WithK(3), WithHistoryLimit(ticks+2),
			WithIngestBuffers(shards), WithMetrics(em))
		if err != nil {
			t.Fatal(err)
		}
		dir, err := New(n, WithK(3), WithHistoryLimit(ticks+2))
		if err != nil {
			t.Fatal(err)
		}
		sc := newChurnScenario(seed, rings, sz)
		rng := rand.New(rand.NewSource(seed + 9000))
		profs := make(map[int32]core.Profile)
		upload := func(u int32, list []RankedPeer, prof *core.Profile) {
			t.Helper()
			if err := buf.Upload(bg, UploadRequest{User: u, Peers: list, Profile: prof}); err != nil {
				t.Fatal(err)
			}
			if err := dir.Upload(bg, UploadRequest{User: u, Peers: list, Profile: prof}); err != nil {
				t.Fatal(err)
			}
		}
		feed := func(users []int32) {
			t.Helper()
			for _, u := range users {
				// A quarter of uploads also transition the user's
				// profile: k_i raised above the service k, lowered
				// beneath it (stored but clustering-neutral), or
				// withdrawn back to the defaults (the explicit zero
				// profile). A further eighth restate the current
				// profile — a set that changes nothing. All other
				// uploads omit the profile entirely and must leave the
				// stored one untouched.
				var prof *core.Profile
				if rng.Intn(4) == 0 {
					switch rng.Intn(3) {
					case 0:
						profs[u] = core.Profile{K: int32(4 + rng.Intn(3))}
					case 1:
						profs[u] = core.Profile{K: 2}
					default:
						delete(profs, u)
					}
					p := profs[u]
					prof = &p
				} else if rng.Intn(2) == 0 {
					p := profs[u]
					prof = &p
				}
				// A third of the time, detour through an intermediate
				// list first so the buffer coalesces a chain whose
				// internal transition must still dirty both endpoints.
				// The profile rides either link, so chains whose first
				// upload is profile-less and a later one sets (the
				// deferred stored-comparison case) are exercised too.
				if rng.Intn(3) == 0 {
					detour := append([]RankedPeer(nil), sc.lists[u]...)
					if len(detour) > 0 {
						detour[0].Rank += 7
					} else {
						detour = []RankedPeer{{Peer: (u + 1) % n, Rank: 9}}
					}
					if rng.Intn(2) == 0 {
						upload(u, detour, prof)
						upload(u, sc.lists[u], nil)
					} else {
						upload(u, detour, nil)
						upload(u, sc.lists[u], prof)
					}
					continue
				}
				upload(u, sc.lists[u], prof)
			}
			// Occasionally send an untouched user on an A→B→A round
			// trip: net-unchanged content that both paths must still
			// count as changed (the direct path saw both transitions).
			if rng.Intn(2) == 0 {
				u := int32(rng.Intn(n))
				detour := append([]RankedPeer(nil), sc.lists[u]...)
				detour = append(detour, RankedPeer{Peer: (u + int32(sz)) % n, Rank: 8})
				upload(u, detour, nil)
				upload(u, sc.lists[u], nil)
			}
			// And an A→B→A profile round trip with unchanged lists: a
			// MaxArea bound set then withdrawn inside one buffer epoch
			// is net-unchanged state both paths must count as changed.
			if rng.Intn(2) == 0 {
				u := int32(rng.Intn(n))
				wide := profs[u]
				wide.MaxArea = 0.5
				back := profs[u]
				upload(u, sc.lists[u], &wide)
				upload(u, sc.lists[u], &back)
			}
			if _, err := buf.Rotate(bg); err != nil {
				t.Fatal(err)
			}
			if _, err := dir.Rotate(bg); err != nil {
				t.Fatal(err)
			}
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		feed(all)
		for tick := 0; tick < ticks; tick++ {
			feed(sc.tick())
		}
		if err := buf.Sync(bg); err != nil {
			t.Fatal(err)
		}
		if err := dir.Sync(bg); err != nil {
			t.Fatal(err)
		}

		bh, dh := buf.History(), dir.History()
		if len(bh) != len(dh) {
			t.Fatalf("seed %d: %d buffered generations vs %d direct", seed, len(bh), len(dh))
		}
		for i := range bh {
			if msg := diffGenerations(bh[i], dh[i]); msg != "" {
				t.Fatalf("seed %d epoch %d: %s", seed, bh[i].Epoch, msg)
			}
		}
		bt, dt := buf.Transcript(), dir.Transcript()
		if strings.Join(bt, "\n") != strings.Join(dt, "\n") {
			t.Fatalf("seed %d: transcripts differ:\nbuffered:\n%s\ndirect:\n%s",
				seed, strings.Join(bt, "\n"), strings.Join(dt, "\n"))
		}
		coalescedTotal += em.Snapshot().Coalesced
		buf.Close()
		dir.Close()
	}
	if coalescedTotal == 0 {
		t.Fatal("no upload was ever coalesced across 100 scenarios — the chains never exercised last-write-wins")
	}
}

// TestBufferedCountPolicyTriggerParity pins trigger placement: under a
// single-threaded upload stream with an EveryUploads policy, the
// buffered path must fire rebuilds on exactly the same uploads as the
// direct path — the count threshold reconciles the buffers just in
// time — so the transcripts match to the byte.
func TestBufferedCountPolicyTriggerParity(t *testing.T) {
	const n, every, uploads = 40, 7, 45
	pol := Policy{EveryUploads: every}
	buf, err := New(n, WithK(2), WithPolicy(pol), WithIngestBuffers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Close()
	dir, err := New(n, WithK(2), WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < uploads; i++ {
		u := int32(rng.Intn(n))
		list := []RankedPeer{{Peer: (u + 1) % n, Rank: int32(1 + rng.Intn(5))}}
		if err := buf.Upload(bg, UploadRequest{User: u, Peers: list}); err != nil {
			t.Fatal(err)
		}
		if err := dir.Upload(bg, UploadRequest{User: u, Peers: list}); err != nil {
			t.Fatal(err)
		}
	}
	if err := buf.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if err := dir.Sync(bg); err != nil {
		t.Fatal(err)
	}
	bt, dt := buf.Transcript(), dir.Transcript()
	if want := uploads / every; len(bt) != want {
		t.Fatalf("buffered path built %d epochs, want %d:\n%s", len(bt), want, strings.Join(bt, "\n"))
	}
	if strings.Join(bt, "\n") != strings.Join(dt, "\n") {
		t.Fatalf("count-policy transcripts differ:\nbuffered:\n%s\ndirect:\n%s",
			strings.Join(bt, "\n"), strings.Join(dt, "\n"))
	}
}

// TestBufferedProfileStalenessEnforced pins the buffered-ingest
// staleness guarantee: a MaxStaleness-bearing profile that lands in an
// ingest buffer on a manager with no policy staleness and no count
// threshold must still get its bound enforced — the upload itself arms
// the staleness timer and leaves a pending-bound hint, so a rebuild
// triggers without any other reconcile point ever firing. Once the
// profile is withdrawn the timer goroutine stops instead of polling the
// idle manager forever (it restarts lazily on the next bound).
func TestBufferedProfileStalenessEnforced(t *testing.T) {
	m, err := New(8, WithK(2), WithIngestBuffers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	prof := core.Profile{K: 3, MaxStaleness: 10 * time.Millisecond}
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: []RankedPeer{{Peer: 1, Rank: 1}}, Profile: &prof}); err != nil {
		t.Fatal(err)
	}
	if err := m.Upload(bg, UploadRequest{User: 1, Peers: []RankedPeer{{Peer: 0, Rank: 1}}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Status().Builds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("staleness-bearing profile sat in the ingest buffer: no rebuild within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	found := false
	for _, line := range m.Transcript() {
		if strings.Contains(line, "trigger=stale") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stale-triggered epoch in transcript:\n%s", strings.Join(m.Transcript(), "\n"))
	}

	// Withdraw the profile: the effective bound drops to 0 and the timer
	// goroutine must stop (stalenessStop reset to nil under the lock).
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: []RankedPeer{{Peer: 1, Rank: 1}}, Profile: &core.Profile{}}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		m.lock()
		stopped := m.stalenessStop == nil
		m.unlock()
		if stopped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("staleness loop still running 5s after the last bound was withdrawn")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconcileOrderIndependent is the property test that shard drain
// order cannot matter: the same upload sequence pushed through 1, 2, 3,
// 5, and 8 shards (which partitions users — and thus drain order —
// completely differently) must reconcile to the same changed and dirty
// sets as the direct path, and rotate into the same transcript.
func TestReconcileOrderIndependent(t *testing.T) {
	const rings, sz = 5, 8
	const n = rings * sz
	sc := newChurnScenario(11, rings, sz)
	// A base population plus two churn ticks' worth of re-uploads, with
	// every list uploaded through both an intermediate and a final
	// version so entries carry internal transitions.
	type up struct {
		u    int32
		list []RankedPeer
	}
	var stream []up
	for u := int32(0); u < n; u++ {
		stream = append(stream, up{u, sc.lists[u]})
	}
	for tick := 0; tick < 2; tick++ {
		for _, u := range sc.tick() {
			detour := append([]RankedPeer(nil), sc.lists[u]...)
			detour[0].Rank += 3
			stream = append(stream, up{u, detour}, up{u, sc.lists[u]})
		}
	}

	sets := func(m *Manager) (changed, dirty map[int32]struct{}) {
		m.lock()
		defer m.unlock()
		changed = make(map[int32]struct{}, len(m.changed))
		for u := range m.changed {
			changed[u] = struct{}{}
		}
		dirty = make(map[int32]struct{}, len(m.dirty))
		for u := range m.dirty {
			dirty[u] = struct{}{}
		}
		return changed, dirty
	}
	setDiff := func(a, b map[int32]struct{}) string {
		if len(a) != len(b) {
			return fmt.Sprintf("sizes %d vs %d", len(a), len(b))
		}
		for u := range a {
			if _, ok := b[u]; !ok {
				return fmt.Sprintf("user %d only on one side", u)
			}
		}
		return ""
	}

	dir, err := New(n, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	for _, s := range stream {
		if err := dir.Upload(bg, UploadRequest{User: s.u, Peers: s.list}); err != nil {
			t.Fatal(err)
		}
	}
	wantChanged, wantDirty := sets(dir)
	if _, err := dir.Rotate(bg); err != nil {
		t.Fatal(err)
	}
	if err := dir.Sync(bg); err != nil {
		t.Fatal(err)
	}
	wantTranscript := strings.Join(dir.Transcript(), "\n")

	for _, shards := range []int{1, 2, 3, 5, 8} {
		m, err := New(n, WithK(2), WithIngestBuffers(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stream {
			if err := m.Upload(bg, UploadRequest{User: s.u, Peers: s.list}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Reconcile(bg); err != nil {
			t.Fatal(err)
		}
		changed, dirty := sets(m)
		if msg := setDiff(changed, wantChanged); msg != "" {
			t.Errorf("shards=%d: changed set differs from direct: %s", shards, msg)
		}
		if msg := setDiff(dirty, wantDirty); msg != "" {
			t.Errorf("shards=%d: dirty set differs from direct: %s", shards, msg)
		}
		if _, err := m.Rotate(bg); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(bg); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(m.Transcript(), "\n"); got != wantTranscript {
			t.Errorf("shards=%d: transcript differs from direct:\n%s\nwant:\n%s", shards, got, wantTranscript)
		}
		m.Close()
	}
}

// TestBufferedUploadCancelWhileFull is the regression test for the
// satellite fix: an Upload stuck on a full shard buffer reconciles via
// the manager lock, and that wait must honor context cancellation
// exactly like the direct path's semaphore wait. The rejected upload
// must not damage the one already buffered.
func TestBufferedUploadCancelWhileFull(t *testing.T) {
	m, err := New(8, WithK(2), WithIngestBuffers(1), WithIngestCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: []RankedPeer{{Peer: 1, Rank: 1}}}); err != nil {
		t.Fatal(err)
	}
	// The single slot is now taken; hold the manager lock so the next
	// upload's reconcile attempt has to wait on it.
	m.lock()
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	err = m.Upload(ctx, UploadRequest{User: 1, Peers: []RankedPeer{{Peer: 2, Rank: 1}}})
	m.unlock()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("upload on a full buffer under a held lock = %v, want DeadlineExceeded", err)
	}
	// An already-dead context must fail deterministically even when the
	// buffer has room (parity with the direct path's lockCtx check).
	dead, cancelDead := context.WithCancel(bg)
	cancelDead()
	if err := m.Upload(dead, UploadRequest{User: 2, Peers: []RankedPeer{{Peer: 3, Rank: 1}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("upload with dead context = %v, want Canceled", err)
	}
	// The first upload survived both rejections and the lock is free
	// again: the retry succeeds and both uploads reconcile.
	if err := m.Upload(bg, UploadRequest{User: 1, Peers: []RankedPeer{{Peer: 2, Rank: 1}}}); err != nil {
		t.Fatalf("retry after cancel = %v", err)
	}
	if err := m.Reconcile(bg); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.Uploads != 2 || st.PendingBuffered != 0 {
		t.Fatalf("after reconcile: %d stored uploads, %d pending buffered; want 2, 0", st.Uploads, st.PendingBuffered)
	}
}

// TestCloseDrainsBufferedUploads pins the Close contract: buffered but
// unreconciled uploads are folded into the upload state on clean Close
// (never silently dropped), and Upload afterwards returns ErrClosed.
func TestCloseDrainsBufferedUploads(t *testing.T) {
	m, err := New(16, WithK(2), WithIngestBuffers(4))
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 10; u++ {
		if err := m.Upload(bg, UploadRequest{User: u, Peers: []RankedPeer{{Peer: (u + 1) % 16, Rank: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Status(); st.PendingBuffered != 10 {
		t.Fatalf("before close: %d pending buffered, want 10", st.PendingBuffered)
	}
	m.Close()
	st := m.Status()
	if st.PendingBuffered != 0 {
		t.Errorf("after close: %d pending buffered, want 0", st.PendingBuffered)
	}
	if st.Uploads != 10 || st.UploadsSeen != 10 {
		t.Errorf("after close: %d stored / %d seen uploads, want 10/10 — buffered uploads were dropped", st.Uploads, st.UploadsSeen)
	}
	if err := m.Upload(bg, UploadRequest{User: 11, Peers: []RankedPeer{{Peer: 1, Rank: 1}}}); !errors.Is(err, ErrClosed) {
		t.Errorf("upload after close = %v, want ErrClosed", err)
	}
	if err := m.Reconcile(bg); !errors.Is(err, ErrClosed) {
		t.Errorf("reconcile after close = %v, want ErrClosed", err)
	}
}

// TestBufferedBackpressureReconciles: filling a shard past its capacity
// must not error or drop — the uploader drains the buffers itself and
// retries.
func TestBufferedBackpressureReconciles(t *testing.T) {
	m, err := New(64, WithK(2), WithIngestBuffers(1), WithIngestCapacity(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for u := int32(0); u < 64; u++ {
		if err := m.Upload(bg, UploadRequest{User: u, Peers: []RankedPeer{{Peer: (u + 1) % 64, Rank: 1}}}); err != nil {
			t.Fatalf("upload %d: %v", u, err)
		}
	}
	if err := m.Reconcile(bg); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.UploadsSeen != 64 {
		t.Fatalf("uploads seen = %d, want 64", st.UploadsSeen)
	}
}

// TestMaxStalenessTrigger: with only a MaxStaleness policy, buffered
// uploads must still become an epoch without any explicit Rotate — the
// staleness timer reconciles and fires. Deadline is generous; the
// assertion is only that it eventually happens and is attributed to the
// stale trigger.
func TestMaxStalenessTrigger(t *testing.T) {
	m, err := New(8, WithK(2), WithIngestBuffers(2),
		WithPolicy(Policy{MaxStaleness: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: []RankedPeer{{Peer: 1, Rank: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Upload(bg, UploadRequest{User: 1, Peers: []RankedPeer{{Peer: 0, Rank: 1}}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := m.Status(); st.Builds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("staleness timer never triggered a build")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	tr := m.Transcript()
	if len(tr) == 0 || !strings.Contains(tr[0], "trigger="+TriggerStale) {
		t.Fatalf("transcript %v lacks a %s trigger", tr, TriggerStale)
	}
}

// TestStalenessLoopRepeatedFirings pins the staleness loop's behavior
// across many timer cycles: each fresh batch of uploads becomes a build
// attributed to the stale trigger, round after round. A timer-reuse bug
// (failing to re-arm, or leaving a stale expiry in the channel) would
// either hang a later round or mis-fire an early one.
func TestStalenessLoopRepeatedFirings(t *testing.T) {
	m, err := New(8, WithK(2),
		WithPolicy(Policy{MaxStaleness: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitBuilds := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st := m.Status(); st.Builds >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("staleness timer never reached build %d", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for round := uint64(1); round <= 3; round++ {
		// Vary the edge set so each round has genuinely new input.
		a, b := int32(2*(round%2)), int32(2*(round%2)+1)
		if err := m.Upload(bg, UploadRequest{User: a, Peers: []RankedPeer{{Peer: b, Rank: 1}}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Upload(bg, UploadRequest{User: b, Peers: []RankedPeer{{Peer: a, Rank: 1}}}); err != nil {
			t.Fatal(err)
		}
		waitBuilds(round)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	for i, line := range m.Transcript() {
		if !strings.Contains(line, "trigger="+TriggerStale) {
			t.Fatalf("transcript line %d = %q; every build should carry the %s trigger", i, line, TriggerStale)
		}
	}
}

// TestPolicyStringStaleness covers the policy rendering with the new
// staleness clause and the constructor validation around it.
func TestPolicyStringStaleness(t *testing.T) {
	p := Policy{EveryUploads: 100, MaxStaleness: 2 * time.Second}
	if got := p.String(); got != "uploads>=100|stale>=2s" {
		t.Errorf("String() = %q", got)
	}
	if got := (Policy{MaxStaleness: time.Minute}).String(); got != "stale>=1m0s" {
		t.Errorf("String() = %q", got)
	}
	if got := (Policy{}).String(); got != "manual" {
		t.Errorf("String() = %q", got)
	}
	if _, err := New(4, WithPolicy(Policy{MaxStaleness: -time.Second})); err == nil {
		t.Error("negative MaxStaleness accepted")
	}
	if _, err := New(4, WithIngestBuffers(2), WithIngestCapacity(0)); err == nil {
		t.Error("zero ingest capacity accepted with buffers on")
	}
	if _, err := New(4, WithIngestBuffers(-3)); err != nil {
		t.Errorf("negative ingest buffers should disable, got %v", err)
	}
}

// TestConcurrentBufferedChurn races buffered uploaders, an explicit
// rotator, an explicit reconciler, and cloakers across generation swaps
// (run under -race). Served clusters must always satisfy k-anonymity
// and contain the host, and every rotation that succeeded must have
// built exactly one generation. How many rotations find new uploads is
// up to the scheduler, so the test counts them instead of expecting a
// number.
func TestConcurrentBufferedChurn(t *testing.T) {
	const rings, sz = 6, 10
	const n = rings * sz
	m, err := New(n, WithK(3), WithWorkers(2), WithIngestBuffers(4))
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

	var producers, cloakers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
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
	var rotated atomic.Uint64 // rotations that returned nil, each one build
	producers.Add(1)
	go func() {
		defer producers.Done()
		for i := 0; i < 40; i++ {
			_, err := m.Rotate(bg)
			if err == nil {
				rotated.Add(1)
			} else if !errors.Is(err, ErrNoNewUploads) && !errors.Is(err, ErrClosed) {
				t.Errorf("rotate: %v", err)
				return
			}
		}
	}()
	producers.Add(1)
	go func() {
		defer producers.Done()
		for i := 0; i < 40; i++ {
			if err := m.Reconcile(bg); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("reconcile: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		cloakers.Add(1)
		go func(w int) {
			defer cloakers.Done()
			rng := rand.New(rand.NewSource(int64(600 + w)))
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
	if err := m.Reconcile(bg); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	close(stop)
	cloakers.Wait()
	// The initial rotation built generation 1; every successful rotation
	// since queued exactly one more.
	if st, want := m.Status(), 1+rotated.Load(); st.Builds != want {
		t.Errorf("%d builds after %d successful rotations, want %d", st.Builds, rotated.Load(), want)
	}
	// Every accepted upload is accounted for: either reconciled into the
	// upload state or still pending (there is no pending after the final
	// explicit reconcile).
	if st := m.Status(); st.PendingBuffered != 0 {
		t.Errorf("%d uploads still buffered after the final reconcile", st.PendingBuffered)
	}

	// The pipeline keeps building after the churn: a changed ranking (no
	// producer ever writes rank 99) must re-arm rotation.
	peers := append([]RankedPeer(nil), lists[0]...)
	peers[0].Rank = 99
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: peers}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rotate(bg); err != nil {
		t.Fatalf("rotate after a changed upload: %v", err)
	}
	if err := m.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if st, want := m.Status(), 2+rotated.Load(); st.Builds != want {
		t.Errorf("%d builds after the final rotation, want %d", st.Builds, want)
	}
}
