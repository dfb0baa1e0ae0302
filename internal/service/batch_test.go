package service

import (
	"context"
	"testing"
)

// TestUploadBatchOverWire drives the upload_batch op end to end:
// ordered application, the batch payload's accepted count, prefix
// semantics on a mid-batch rejection, and sticky profile pointer
// semantics matching single uploads.
func TestUploadBatchOverWire(t *testing.T) {
	const n = 12
	srv, err := New(WithNumUsers(n), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One batch carries users 0..9, with a same-user overwrite pair
	// (stale list for user 3 immediately overwritten — order within the
	// batch must hold) and a profile on user 5.
	ring := ringPeers(n)
	var entries []UploadEntry
	for u := int32(0); u < 10; u++ {
		e := UploadEntry{User: u, Peers: ring[u]}
		if u == 5 {
			e.Profile = &ProfileSpec{K: 4}
		}
		entries = append(entries, e)
	}
	entries = append(entries,
		UploadEntry{User: 3, Peers: ring[3][:1]},
		UploadEntry{User: 3, Peers: ring[3]},
	)
	accepted, err := c.UploadBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(entries) {
		t.Fatalf("accepted = %d, want %d", accepted, len(entries))
	}

	// Mid-batch rejection: the valid prefix applies, the entry index
	// comes back as the accepted count, the tail is not attempted.
	accepted, err = c.UploadBatch([]UploadEntry{
		{User: 10, Peers: ring[10]},
		{User: 99, Peers: ring[10]}, // out of range
		{User: 11, Peers: ring[11]},
	})
	if err == nil {
		t.Fatal("invalid entry accepted")
	}
	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1 (the applied prefix)", accepted)
	}
	st, err := c.StatsV1()
	if err != nil {
		t.Fatal(err)
	}
	if st.Uploads != 11 {
		t.Fatalf("uploads = %d, want 11: users 0..10 applied, 11 rejected with the tail", st.Uploads)
	}

	// Finish the ring one entry at a time — a batch of one is the same
	// operation as a single upload.
	if accepted, err = c.UploadBatch([]UploadEntry{{User: 11, Peers: ring[11]}}); err != nil || accepted != 1 {
		t.Fatalf("batch of one = %d, %v", accepted, err)
	}

	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	// The whole ring is one component; user 5's batched profile must
	// raise its effective anonymity exactly as an UploadProfile would.
	cp, err := c.CloakV1(5)
	if err != nil {
		t.Fatal(err)
	}
	if cp.EffectiveK != 4 || len(cp.Cluster) < 4 {
		t.Fatalf("user 5 cloak = effective_k %d, %d members; want the batched profile honored", cp.EffectiveK, len(cp.Cluster))
	}
	// Sticky semantics: a later batch entry with a nil profile keeps the
	// stored one, mirroring single-upload pointer semantics.
	if _, err := c.UploadBatch([]UploadEntry{{User: 5, Peers: ring[5]}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	cp, err = c.CloakV1(5)
	if err != nil {
		t.Fatal(err)
	}
	if cp.EffectiveK != 4 {
		t.Fatalf("user 5 effective_k = %d after nil-profile re-upload, want sticky 4", cp.EffectiveK)
	}
}

// TestUploadBatchEmpty pins the degenerate case: an empty batch is a
// no-op success with accepted 0.
func TestUploadBatchEmpty(t *testing.T) {
	srv, err := New(WithNumUsers(4), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	env := srv.HandleEnvelope(context.Background(), Request{V: 1, Op: OpUploadBatch})
	if !env.OK || env.Batch == nil || env.Batch.Accepted != 0 {
		t.Fatalf("empty batch envelope = %+v", env)
	}
}
