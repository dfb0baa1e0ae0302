package epoch

import (
	"strings"
	"testing"
	"time"

	"nonexposure/internal/core"
)

// TestProfileStalenessEnforced pins per-profile staleness: a
// MaxStaleness-bearing profile on a manager with no policy staleness and
// no count threshold must still get its bound enforced — storing the
// profile starts the staleness timer, so a rebuild triggers without any
// explicit Rotate. Once the profile is reverted the timer goroutine
// stops instead of polling the idle manager forever (it restarts lazily
// on the next bound).
func TestProfileStalenessEnforced(t *testing.T) {
	m, err := New(8, WithK(2))
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
			t.Fatal("staleness-bearing profile never triggered a rebuild within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	found := false
	for _, line := range m.Transcript() {
		if strings.Contains(line, "trigger="+TriggerStale) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stale-triggered epoch in transcript:\n%s", strings.Join(m.Transcript(), "\n"))
	}

	// Revert the profile: the effective bound drops to 0 and the timer
	// goroutine must stop (stalenessStop reset to nil under the lock).
	if err := m.Upload(bg, UploadRequest{User: 0, Peers: []RankedPeer{{Peer: 1, Rank: 1}}, Profile: &core.Profile{}}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		stopped := m.stalenessStop == nil
		m.mu.Unlock()
		if stopped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("staleness loop still running 5s after the last bound was withdrawn")
		}
		time.Sleep(time.Millisecond)
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
}
