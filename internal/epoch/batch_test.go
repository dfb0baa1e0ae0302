package epoch

import (
	"strings"
	"testing"

	"nonexposure/internal/core"
)

// orderedRing returns the ring uploads as an ordered slice (map order
// would randomize the comparison below), with a non-default profile on
// one user and a same-user overwrite pair so the batch path has to
// preserve write order within a batch.
func orderedRing(n int) []UploadRequest {
	ring := ringUploads(n)
	reqs := make([]UploadRequest, 0, n+2)
	for u := int32(0); u < int32(n); u++ {
		req := UploadRequest{User: u, Peers: ring[u]}
		if u == 5 {
			req.Profile = &core.Profile{K: 4}
		}
		reqs = append(reqs, req)
	}
	// User 3 re-uploads twice more: first a truncated stale list, then
	// its real one again. The last write must win.
	reqs = append(reqs,
		UploadRequest{User: 3, Peers: ring[3][:1]},
		UploadRequest{User: 3, Peers: ring[3]},
	)
	return reqs
}

// TestUploadBatchMatchesSerial pins the batch ingestion contract: a
// population applied via UploadBatch is indistinguishable from the same
// requests applied one Upload at a time — same epoch transcript (the
// EveryUploads policy fires at the same entry positions, mid-batch
// included), same stored state, same cloaks.
func TestUploadBatchMatchesSerial(t *testing.T) {
	const n = 24
	mk := func() *Manager {
		m, err := New(n, WithK(2), WithPolicy(Policy{EveryUploads: 7}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	serial, batched := mk(), mk()

	reqs := orderedRing(n)
	for _, req := range reqs {
		if err := serial.Upload(bg, req); err != nil {
			t.Fatal(err)
		}
	}
	// Two batches, split so the EveryUploads=7 policy fires mid-batch in
	// both.
	for _, part := range [][]UploadRequest{reqs[:10], reqs[10:]} {
		applied, err := batched.UploadBatch(bg, part)
		if err != nil {
			t.Fatal(err)
		}
		if applied != len(part) {
			t.Fatalf("UploadBatch applied %d of %d", applied, len(part))
		}
	}

	for _, m := range []*Manager{serial, batched} {
		if _, err := m.Rotate(bg); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(bg); err != nil {
			t.Fatal(err)
		}
	}

	st, bt := serial.Transcript(), batched.Transcript()
	if strings.Join(st, "\n") != strings.Join(bt, "\n") {
		t.Fatalf("transcripts diverge:\nserial:\n%s\nbatched:\n%s",
			strings.Join(st, "\n"), strings.Join(bt, "\n"))
	}
	ss, bs := serial.Status(), batched.Status()
	if ss.UploadsSeen != bs.UploadsSeen || ss.Uploads != bs.Uploads || ss.Epoch != bs.Epoch || ss.Profiled != bs.Profiled {
		t.Fatalf("status diverges: serial=%+v batched=%+v", ss, bs)
	}
	for u := int32(0); u < int32(n); u++ {
		sr, serr := serial.Cloak(bg, u)
		br, berr := batched.Cloak(bg, u)
		if (serr == nil) != (berr == nil) {
			t.Fatalf("user %d: serial err=%v batched err=%v", u, serr, berr)
		}
		if serr == nil && len(sr.Cluster.Members) != len(br.Cluster.Members) {
			t.Fatalf("user %d: serial members=%v batched members=%v", u, sr.Cluster.Members, br.Cluster.Members)
		}
	}
}

// TestUploadBatchPartialFailure pins the prefix semantics: entries
// apply in order up to the first invalid one; the return counts the
// durably applied prefix and nothing after the failure is attempted.
func TestUploadBatchPartialFailure(t *testing.T) {
	m, err := New(10, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	reqs := []UploadRequest{
		{User: 0, Peers: []RankedPeer{{Peer: 1, Rank: 1}}},
		{User: 1, Peers: []RankedPeer{{Peer: 0, Rank: 1}}},
		{User: 99}, // out of range: the batch stops here
		{User: 2, Peers: []RankedPeer{{Peer: 1, Rank: 1}}},
	}
	applied, err := m.UploadBatch(bg, reqs)
	if err == nil {
		t.Fatal("invalid entry accepted")
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2 (the valid prefix)", applied)
	}
	st := m.Status()
	if st.Uploads != 2 {
		t.Fatalf("stored uploads = %d, want 2: the tail after the failure must not apply", st.Uploads)
	}
	if st.UploadsSeen != 2 {
		t.Fatalf("uploads seen = %d, want 2", st.UploadsSeen)
	}
}
