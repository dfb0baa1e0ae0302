package epoch

import (
	"strings"
	"testing"

	"math/rand"

	"nonexposure/internal/core"
)

// TestProfileDifferential is the acceptance gate for personalized
// privacy profiles, in two halves.
//
// Default half: a pipeline whose uploads carry only clustering-neutral
// profiles (zero, or a personal floor at or below the service k) must
// publish generations bit-identical to a pipeline fed the same lists
// with no profiles at all — same clusters, same IDs — and the
// no-profile pipeline's transcript must carry no profile suffix while
// the profiled one only ever appends to those same lines. Profiles that
// do not raise any floor cannot perturb the clustering.
//
// Heterogeneous half: across 100 seeded churn scenarios with profile
// churn (floors raised up to 3x the service k, lowered, withdrawn),
// every published generation's clusters must satisfy max(k_i) over
// their members as demanded by the profiles stored at trigger time, and
// the generation's per-cluster meta must agree with an independent
// recomputation of those floors.
func TestProfileDifferential(t *testing.T) {
	t.Run("DefaultBitIdentical", testProfileDefaultBitIdentical)
	t.Run("HeterogeneousMaxKi", testProfileHeterogeneousMaxKi)
}

func testProfileDefaultBitIdentical(t *testing.T) {
	const rings, sz, ticks = 5, 8, 4
	const n = rings * sz
	plain, err := New(n, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	neutral, err := New(n, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	defer neutral.Close()

	sc := newChurnScenario(77, rings, sz)
	rng := rand.New(rand.NewSource(78))
	var ph, nh []*Generation
	feed := func(users []int32) {
		for _, u := range users {
			if err := plain.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u]}); err != nil {
				t.Fatal(err)
			}
			// Clustering-neutral profile: a floor at or below the
			// service k (or zero), drawn per upload.
			prof := core.Profile{K: int32(rng.Intn(4))}
			if err := neutral.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u], Profile: &prof}); err != nil {
				t.Fatal(err)
			}
		}
		pg, err := plain.RotateAndWait(bg)
		if err != nil {
			t.Fatal(err)
		}
		ng, err := neutral.RotateAndWait(bg)
		if err != nil {
			t.Fatal(err)
		}
		ph, nh = append(ph, pg), append(nh, ng)
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	feed(all)
	for tick := 0; tick < ticks; tick++ {
		feed(sc.tick())
	}

	for i := range ph {
		// Meta/profile accounting legitimately differ (the neutral run
		// stores profiles), so compare the clustering itself.
		pc, nc := ph[i].Anon.Registry().Clusters(), nh[i].Anon.Registry().Clusters()
		if len(pc) != len(nc) {
			t.Fatalf("epoch %d: %d clusters vs %d", ph[i].Epoch, len(pc), len(nc))
		}
		for j := range pc {
			if pc[j].ID != nc[j].ID || pc[j].T != nc[j].T || len(pc[j].Members) != len(nc[j].Members) {
				t.Fatalf("epoch %d cluster %d differs: %+v vs %+v", ph[i].Epoch, j, pc[j], nc[j])
			}
			for m := range pc[j].Members {
				if pc[j].Members[m] != nc[j].Members[m] {
					t.Fatalf("epoch %d cluster %d member %d: %d vs %d",
						ph[i].Epoch, j, m, pc[j].Members[m], nc[j].Members[m])
				}
			}
		}
		if ph[i].Edges != nh[i].Edges || ph[i].Skipped != nh[i].Skipped {
			t.Fatalf("epoch %d bookkeeping differs", ph[i].Epoch)
		}
	}

	// Transcript contract: no-profile lines carry no profile suffix;
	// profiled lines are the same lines with an additive suffix only.
	pt, nt := plain.Transcript(), neutral.Transcript()
	if len(pt) != len(nt) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(pt), len(nt))
	}
	for i := range pt {
		if strings.Contains(pt[i], "profiled=") {
			t.Fatalf("plain transcript line %d carries a profile suffix: %s", i, pt[i])
		}
		if !strings.HasPrefix(nt[i], pt[i]) {
			t.Fatalf("neutral transcript line %d is not an additive extension:\nplain:   %s\nneutral: %s",
				i, pt[i], nt[i])
		}
	}
}

func testProfileHeterogeneousMaxKi(t *testing.T) {
	const seeds = 100
	const rings, sz, ticks = 5, 8, 3
	const n = rings * sz
	const k = 3
	raisedSomewhere := false
	for seed := int64(0); seed < seeds; seed++ {
		m, err := New(n, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		sc := newChurnScenario(seed+500, rings, sz)
		rng := rand.New(rand.NewSource(seed + 501))
		profs := make(map[int32]core.Profile)
		var snaps []map[int32]core.Profile
		var hist []*Generation

		churnProfile := func(u int32) {
			switch rng.Intn(4) {
			case 0:
				profs[u] = core.Profile{K: int32(k + 1 + rng.Intn(2*k))}
			case 1:
				profs[u] = core.Profile{K: int32(rng.Intn(k + 1))}
			case 2:
				delete(profs, u)
			}
		}
		feed := func(users []int32) {
			for _, u := range users {
				churnProfile(u)
				prof := profs[u] // zero after a withdraw: the explicit revert
				if err := m.Upload(bg, UploadRequest{User: u, Peers: sc.lists[u], Profile: &prof}); err != nil {
					t.Fatal(err)
				}
			}
			// Snapshot the stored profiles the trigger will see.
			snap := make(map[int32]core.Profile, len(profs))
			for u, p := range profs {
				if !p.IsDefault() {
					snap[u] = p
				}
			}
			snaps = append(snaps, snap)
			gen, err := m.RotateAndWait(bg)
			if err != nil {
				t.Fatal(err)
			}
			hist = append(hist, gen)
		}

		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		feed(all)
		for tick := 0; tick < ticks; tick++ {
			feed(sc.tick())
		}

		for i, gen := range hist {
			if gen.BuildErr != nil {
				t.Fatalf("seed %d epoch %d: build failed: %v", seed, gen.Epoch, gen.BuildErr)
			}
			snap := snaps[i]
			clusters := gen.Anon.Registry().Clusters()
			for _, c := range clusters {
				need := k
				for _, v := range c.Members {
					if p, ok := snap[v]; ok && int(p.K) > need {
						need = int(p.K)
					}
				}
				if need > k {
					raisedSomewhere = true
				}
				if c.Size() < need {
					t.Fatalf("seed %d epoch %d: cluster %d has %d members < max(k_i)=%d",
						seed, gen.Epoch, c.ID, c.Size(), need)
				}
				if int(c.ID) < len(gen.Meta) {
					if got := gen.Meta[c.ID].EffK; got != need {
						t.Fatalf("seed %d epoch %d: cluster %d meta EffK=%d, recomputed %d",
							seed, gen.Epoch, c.ID, got, need)
					}
				} else if len(gen.Meta) > 0 {
					t.Fatalf("seed %d epoch %d: cluster %d has no meta entry (meta len %d)",
						seed, gen.Epoch, c.ID, len(gen.Meta))
				}
			}
			if len(snap) != gen.Profiled {
				t.Fatalf("seed %d epoch %d: gen.Profiled=%d, snapshot has %d non-default profiles",
					seed, gen.Epoch, gen.Profiled, len(snap))
			}
		}
		m.Close()
	}
	if !raisedSomewhere {
		t.Fatal("no cluster ever carried a raised floor across 100 scenarios — the profile churn never engaged")
	}
}

// TestProfileStickyAcrossUploads pins the documented sticky semantics
// on the direct upload path: a profile-less re-upload (nil Profile)
// keeps the stored profile and does not dirty the user's component,
// restating the stored profile is equally change-free, and only the
// explicit zero profile reverts to the service defaults — which is a
// change.
func TestProfileStickyAcrossUploads(t *testing.T) {
	t.Run("Direct", func(t *testing.T) {
		const n = 10
		m, err := New(n, WithK(2))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		list := []RankedPeer{{Peer: 1, Rank: 1}, {Peer: 2, Rank: 2}}

		prof := core.Profile{K: 5}
		if err := m.Upload(bg, UploadRequest{User: 0, Peers: list, Profile: &prof}); err != nil {
			t.Fatal(err)
		}
		if st := m.Status(); st.Profiled != 1 {
			t.Fatalf("after profiled upload: Profiled = %d, want 1", st.Profiled)
		}
		if _, err := m.Rotate(bg); err != nil {
			t.Fatal(err)
		}

		// Omit: the stored profile survives and nothing is dirtied.
		if err := m.Upload(bg, UploadRequest{User: 0, Peers: list}); err != nil {
			t.Fatal(err)
		}
		if st := m.Status(); st.Profiled != 1 || st.ChangedSinceTrigger != 0 {
			t.Fatalf("after profile-less re-upload: Profiled=%d Changed=%d, want 1/0",
				st.Profiled, st.ChangedSinceTrigger)
		}
		// Restate: an explicit set equal to the stored profile is
		// equally change-free.
		restate := prof
		if err := m.Upload(bg, UploadRequest{User: 0, Peers: list, Profile: &restate}); err != nil {
			t.Fatal(err)
		}
		if st := m.Status(); st.Profiled != 1 || st.ChangedSinceTrigger != 0 {
			t.Fatalf("after restated profile: Profiled=%d Changed=%d, want 1/0",
				st.Profiled, st.ChangedSinceTrigger)
		}

		// Explicit zero: reverts, and the revert is a change.
		if err := m.Upload(bg, UploadRequest{User: 0, Peers: list, Profile: &core.Profile{}}); err != nil {
			t.Fatal(err)
		}
		if st := m.Status(); st.Profiled != 0 || st.ChangedSinceTrigger != 1 {
			t.Fatalf("after explicit zero profile: Profiled=%d Changed=%d, want 0/1",
				st.Profiled, st.ChangedSinceTrigger)
		}
	})
}
