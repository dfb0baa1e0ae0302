package service

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"nonexposure/internal/epoch"
)

// ringPeers builds a mutual ring population for small protocol tests.
func ringPeers(n int) map[int32][]PeerRank {
	out := make(map[int32][]PeerRank, n)
	for i := 0; i < n; i++ {
		out[int32(i)] = []PeerRank{
			{Peer: int32((i + 1) % n), Rank: 1},
			{Peer: int32((i - 1 + n) % n), Rank: 2},
		}
	}
	return out
}

// TestV1ExplicitZeroFields pins that payloads serialize their
// meaningful zeros: a cached cloak (cost 0) and an unfrozen server
// (frozen false) must keep those fields.
func TestV1ExplicitZeroFields(t *testing.T) {
	env := Envelope{V: 1, OK: true, Cloak: &CloakPayload{Cluster: []int32{1, 2}, Cost: 0, Epoch: 3}}
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"cost":0`) {
		t.Errorf("v1 cloak payload drops zero cost: %s", raw)
	}

	env = Envelope{V: 1, OK: true, Stats: &StatsPayload{Users: 5, Frozen: false}}
	raw, err = json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"frozen":false`) {
		t.Errorf("v1 stats payload drops frozen=false: %s", raw)
	}

	// The envelope carries exactly one payload; the others stay absent.
	if strings.Contains(string(raw), `"cloak"`) || strings.Contains(string(raw), `"epoch":{`) {
		t.Errorf("unused payloads serialized: %s", raw)
	}
}

// TestV1LifecycleOverTCP drives the full pipeline through the v1
// protocol: upload, rotate, status, versioned cloak with epoch labels.
func TestV1LifecycleOverTCP(t *testing.T) {
	srv, err := New(WithNumUsers(12), WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Unfrozen stats report frozen=false explicitly (over the wire, not
	// just in marshaling).
	st, err := c.StatsV1()
	if err != nil {
		t.Fatal(err)
	}
	if st.Frozen || st.Users != 12 || st.Epoch != 0 {
		t.Errorf("fresh stats = %+v", st)
	}

	for user, peers := range ringPeers(12) {
		if err := c.Upload(user, peers); err != nil {
			t.Fatal(err)
		}
	}
	rot, err := c.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if rot.Epoch != 1 {
		t.Errorf("rotate assigned epoch %d, want 1", rot.Epoch)
	}
	// Rotate is async; freeze is the synchronous barrier.
	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}

	// Wait for publication via the epoch op.
	for i := 0; ; i++ {
		ep, err := c.EpochStatus()
		if err != nil {
			t.Fatal(err)
		}
		if ep.Published {
			if ep.Epoch < 1 || ep.Swaps < 1 {
				t.Errorf("published status = %+v", ep)
			}
			break
		}
		if i > 1000 {
			t.Fatal("epoch never published")
		}
	}

	cp, err := c.CloakV1(0)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch < 1 || len(cp.Cluster) < 3 {
		t.Errorf("cloak payload = %+v", cp)
	}
	if cp.Cost != 12 {
		t.Errorf("first v1 cloak cost = %d, want 12", cp.Cost)
	}
	// The repeat is served from the generation cache: cost 0, and the
	// raw wire bytes must still contain the field.
	cp2, err := c.CloakV1(cp.Cluster[0])
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Cost != 0 {
		t.Errorf("cached v1 cloak cost = %d, want 0", cp2.Cost)
	}
}

// TestV1PolicyDrivenRebuildOverTCP exercises the tentpole over the
// wire: a count-based policy rebuilds in the background while cloaks
// keep being served, and the epoch label advances without any freeze.
func TestV1PolicyDrivenRebuildOverTCP(t *testing.T) {
	const n = 10
	srv, err := New(WithNumUsers(n), WithK(2),
		WithEpochOptions(epoch.WithPolicy(epoch.Policy{EveryUploads: n})))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ring := ringPeers(n)
	upload := func(round int32) {
		for user, peers := range ring {
			p := append([]PeerRank(nil), peers...)
			p[0].Rank += round // force change
			if err := c.Upload(user, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitEpoch := func(want uint64) *EpochPayload {
		for i := 0; ; i++ {
			ep, err := c.EpochStatus()
			if err != nil {
				t.Fatal(err)
			}
			if ep.Published && ep.Epoch >= want {
				return ep
			}
			if i > 2000 {
				t.Fatalf("epoch %d never published (at %+v)", want, ep)
			}
		}
	}

	upload(0) // n uploads → policy fires epoch 1
	ep := waitEpoch(1)
	if ep.Policy != "uploads>=10" {
		t.Errorf("policy = %q", ep.Policy)
	}
	cp, err := c.CloakV1(0)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch != 1 {
		t.Errorf("cloak served by epoch %d, want 1", cp.Epoch)
	}

	upload(1) // next n uploads → epoch 2, no freeze involved
	waitEpoch(2)
	cp, err = c.CloakV1(0)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch != 2 {
		t.Errorf("cloak served by epoch %d, want 2", cp.Epoch)
	}
	if cp.Cost != n {
		t.Errorf("first cloak of epoch 2 cost = %d, want %d", cp.Cost, n)
	}
}

// TestV1ProfileOverTCP drives the personalized-profile extension over
// the wire: a v1 upload carries a profile object, cloak answers report
// the effective anonymity level and the degraded flag, the epoch and
// stats payloads count profiled users, and an explicit zero profile
// reverts to the service defaults. The server is given a fixed-area
// estimator through WithEpochOptions, so the MaxArea comparison is
// exercised without the service ever seeing coordinates.
func TestV1ProfileOverTCP(t *testing.T) {
	const n = 12
	srv, err := New(WithNumUsers(n), WithK(3),
		WithEpochOptions(epoch.WithAreaEstimator(func([]int32) (float64, bool) { return 4.0, true })))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	peers := ringPeers(n)
	for user := int32(0); user < n; user++ {
		if user == 0 {
			// User 0 demands k_i=5 and a MaxArea below the estimator's
			// constant 4.0, so its cloak must come back degraded.
			err = c.UploadProfile(user, peers[user], ProfileSpec{K: 5, MaxArea: 1.0})
		} else {
			err = c.Upload(user, peers[user])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}

	cl, err := c.CloakV1(0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.EffectiveK < 5 {
		t.Errorf("effective_k = %d, want >= 5", cl.EffectiveK)
	}
	if len(cl.Cluster) < 5 {
		t.Errorf("cluster size %d < demanded k_i=5", len(cl.Cluster))
	}
	if !cl.Degraded {
		t.Error("cloak not degraded despite area 4.0 > MaxArea 1.0")
	}

	ep, err := c.EpochStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Profiled != 1 || ep.KMax < 5 || ep.Degraded < 1 {
		t.Errorf("epoch payload profile accounting = profiled=%d k_max=%d degraded=%d",
			ep.Profiled, ep.KMax, ep.Degraded)
	}
	st, err := c.StatsV1()
	if err != nil {
		t.Fatal(err)
	}
	if st.Profiled != 1 {
		t.Errorf("stats profiled = %d, want 1", st.Profiled)
	}

	// An explicit zero profile reverts user 0 to the service defaults.
	if err := c.UploadProfile(0, peers[0], ProfileSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	if st, err = c.StatsV1(); err != nil || st.Profiled != 0 {
		t.Errorf("after revert: stats profiled = %d err=%v, want 0/nil", st.Profiled, err)
	}
	cl, err = c.CloakV1(0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.EffectiveK != 3 || cl.Degraded {
		t.Errorf("after revert: effective_k=%d degraded=%v, want 3/false", cl.EffectiveK, cl.Degraded)
	}
}

// TestV1ProfileStickyOverWire pins PROTOCOL.md's sticky-profile
// contract at the wire layer: after an upload stores a profile, an
// upload that omits the profile object leaves it untouched, and only
// the explicit empty object ("profile":{}) reverts the user to the
// service defaults. This is the regression test for the
// revert-on-omit bug where any profile-less re-upload silently lowered
// a user's demanded anonymity floor back to the service default.
func TestV1ProfileStickyOverWire(t *testing.T) {
	const n = 12
	srv, err := New(WithNumUsers(n), WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	peers := ringPeers(n)
	for user := int32(0); user < n; user++ {
		if err := c.Upload(user, peers[user]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.UploadProfile(0, peers[0], ProfileSpec{K: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	assertFloor := func(step string, wantK int, wantProfiled int) {
		t.Helper()
		cl, err := c.CloakV1(0)
		if err != nil {
			t.Fatal(err)
		}
		if cl.EffectiveK != wantK {
			t.Errorf("%s: effective_k = %d, want %d", step, cl.EffectiveK, wantK)
		}
		st, err := c.StatsV1()
		if err != nil {
			t.Fatal(err)
		}
		if st.Profiled != wantProfiled {
			t.Errorf("%s: stats profiled = %d, want %d", step, st.Profiled, wantProfiled)
		}
	}
	assertFloor("after profiled upload", 5, 1)

	// A re-upload without a profile object: the stored floor must
	// survive.
	if err := c.Upload(0, peers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	assertFloor("after profile-less re-upload", 5, 1)

	// Only the explicit empty object reverts.
	if err := c.UploadProfile(0, peers[0], ProfileSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	assertFloor("after explicit {} revert", 3, 0)
}
