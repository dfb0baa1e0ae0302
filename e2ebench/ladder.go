package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"nonexposure/internal/cluster"
	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// Ladder sizes: how many calls each rung makes.
const (
	ladderHosts     = 4000 // hosts cloaked per rung, from the head of the workload's stream
	ladderNoops     = 15   // rotates with nothing new to build, per rung
	ladderBatches   = 40   // restating upload_batch requests per write rung
	ladderReps      = 3    // repetitions of the single-process graph and clustering calls
	ladderBlock     = 100  // sub-microsecond calls timed per span
	ladderTimeoutOp = 30 * time.Second
)

// ladderResult is what the ladder measured beyond its spans.
type ladderResult struct {
	cloakHandleUs  float64 // shards' mean cloak handle time over the ladder's cloaks
	bytesPerCloak  float64 // computed: request plus reply line, re-encoded
	bytesPerUpload float64 // computed: upload_batch request plus reply, per entry
	// builds holds the slowest shard build of every ladder rotate.
	builds []buildSplit
}

// runLadder calls each layer's public entry point with the run's own
// inputs, top to bottom, recording a span around every call. Rungs
// whose spans the where-the-time-goes table subtracts make like calls
// on the same state: the same served hosts, and uploads that restate
// what the system already holds, so no rung changes what the next one
// sees. Where such calls are short, they alternate call by call, so
// drift of the machine's speed lands on every rung alike. It runs on
// the traced system after the sweep; only its write steps, the last
// rung on the system, change that system's state.
func runLadder(sys *system, in *inputs, ref *reference, rec *recorder) (*ladderResult, error) {
	ctx := context.Background()
	root := rec.root("ladder")
	defer root.end()
	out := &ladderResult{}

	// Untimed: the served hosts among the head of the closed-loop
	// stream, and the shard that serves each.
	head := in.loop[in.loopWarm:]
	if len(head) > ladderHosts {
		head = head[:ladderHosts]
	}
	var hosts []int32
	var shardOf []int
	homes := make([][]int32, len(sys.shards))
	for _, h := range head {
		if s := sys.home(ctx, h); s >= 0 {
			hosts, shardOf = append(hosts, h), append(shardOf, s)
			homes[s] = append(homes[s], h)
		}
	}

	csp := root.child("ladder.cloak")
	err := cloakRungs(ctx, sys, csp, hosts, shardOf, out)
	csp.end()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	// Upload batches restating the first users' uploads, through the
	// listener and then in process. Each rung starts with the queues
	// to the shards empty.
	restate := in.restating(ref.uploads, headOf(allUsers(in.n)))
	usp := root.child("ladder.upload")
	err = frontendUploads(ctx, sys, usp, restate)
	if err == nil {
		err = clusterUploads(ctx, sys, usp, restate)
	}
	usp.end()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	nsp := root.child("ladder.rotate_noop")
	err = noopRotates(ctx, sys, nsp)
	nsp.end()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	// service: upload batches straight to the shard, each restating the
	// uploads of users that shard serves.
	ssp := root.child("ladder.service")
	var uploadBytes, uploaded float64
	var shardBatches [][]service.UploadEntry
	for s := range sys.shards {
		cl, err := service.Dial(sys.shardAddrs[s], service.WithOpTimeout(ladderTimeoutOp))
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		bs := in.restating(ref.uploads, headOf(homes[s]))
		for _, b := range bs {
			sp := ssp.child("service.upload_batch")
			n, err := cl.UploadBatch(b)
			sp.end()
			if err != nil {
				_ = cl.Close()
				return nil, fmt.Errorf("ladder: service upload_batch: %w", err)
			}
			uploadBytes += lineBytes(service.Request{V: service.ProtocolVersion, Op: service.OpUploadBatch, Uploads: b}) +
				lineBytes(service.Envelope{V: service.ProtocolVersion, OK: true, Batch: &service.BatchPayload{Accepted: n}})
			uploaded += float64(len(b))
		}
		shardBatches = append(shardBatches, bs...)
		_ = cl.Close() // ladder connection, nothing pending
	}
	ssp.end()
	out.bytesPerUpload = ratio(uploadBytes, uploaded)

	// epoch and anonymizer: each shard's pipeline and its serving
	// generation, in process, timed in blocks.
	esp := root.child("ladder.epoch")
	for s, srv := range sys.shards {
		mgr := srv.Manager()
		anon := mgr.Current().Anon
		for _, blk := range blocks(homes[s]) {
			sp := esp.child("epoch.cloak")
			for _, h := range blk {
				if _, err := mgr.Cloak(ctx, h); err != nil {
					return nil, fmt.Errorf("ladder: epoch cloak %d: %w", h, err)
				}
			}
			sp.endN(len(blk))
		}
		for _, blk := range blocks(homes[s]) {
			sp := esp.child("anonymizer.cloak")
			for _, h := range blk {
				if _, _, err := anon.Cloak(ctx, h); err != nil {
					return nil, fmt.Errorf("ladder: anonymizer cloak %d: %w", h, err)
				}
			}
			sp.endN(len(blk))
		}
	}
	// A standalone pipeline holding the run's final uploads (loaded
	// untimed), fed the batches the service rung sent.
	mgr, err := epoch.New(in.n, epoch.WithK(in.k))
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	defer mgr.Close()
	for _, b := range in.restating(ref.uploads, allUsers(in.n)) {
		if _, err := mgr.UploadBatch(ctx, epochRequests(b)); err != nil {
			return nil, fmt.Errorf("ladder: epoch load: %w", err)
		}
	}
	for _, b := range shardBatches {
		reqs := epochRequests(b)
		sp := esp.child("epoch.upload_batch")
		_, err := mgr.UploadBatch(ctx, reqs)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("ladder: epoch upload_batch: %w", err)
		}
	}
	esp.end()

	// cluster write steps: the workload's own kind of write step through
	// the coordinator's API in process, then a flush and a rotate.
	tsp := root.child("ladder.cluster_steps")
	for _, t := range in.ladder {
		for _, b := range t.batches {
			for _, e := range b {
				if err := sys.coord.Upload(ctx, cluster.UploadRequest{User: e.User, Peers: e.Peers, Profile: e.Profile}); err != nil {
					return nil, fmt.Errorf("ladder: cluster upload: %w", err)
				}
			}
		}
		sp := tsp.child("cluster.flush")
		err := sys.coord.Flush(ctx)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("ladder: flush: %w", err)
		}
		before := sys.epochs()
		sp = tsp.child("cluster.rotate")
		_, err = sys.coord.Rotate(ctx)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("ladder: rotate: %w", err)
		}
		if b, ok := sys.slowestBuild(before); ok {
			out.builds = append(out.builds, b)
		}
	}
	tsp.end()

	// wpg and core: the single-process graph build and clustering on the
	// run's final uploads.
	wsp := root.child("ladder.wpg")
	for i := 0; i < ladderReps; i++ {
		sp := wsp.child("wpg.graph")
		_, err := epoch.BuildGraph(in.n, ref.uploads)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("ladder: graph: %w", err)
		}
	}
	next, changed := ref.applied(in.ladder[0])
	for i := 0; i < ladderReps; i++ {
		sp := wsp.child("wpg.graph_incr")
		_, err := epoch.BuildGraphIncremental(in.n, next, ref.graph, changed)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("ladder: incremental graph: %w", err)
		}
	}
	wsp.end()
	ksp := root.child("ladder.core")
	for i := 0; i < ladderReps; i++ {
		sp := ksp.child("core.tconn")
		in.cluster(ref.graph)
		sp.end()
	}
	ksp.end()
	return out, nil
}

// cloakRungs cloaks each served host three ways in turn: through the
// coordinator's listener on one connection, on the coordinator's API in
// process, and with a client straight to the shard that serves it. It
// also records the shards' mean cloak handle time over these calls and
// the computed bytes per cloak.
func cloakRungs(ctx context.Context, sys *system, parent spanRef, hosts []int32, shardOf []int, out *ladderResult) error {
	front, err := sys.dial()
	if err != nil {
		return err
	}
	defer front.Close() // every call below has had its reply
	direct := make([]*service.Client, len(sys.shards))
	before := make([]metrics.OpSnapshot, len(sys.shards))
	for s, srv := range sys.shards {
		cl, err := service.Dial(sys.shardAddrs[s], service.WithOpTimeout(ladderTimeoutOp))
		if err != nil {
			return err
		}
		defer cl.Close() // every call below has had its reply
		direct[s] = cl
		before[s] = opStats(srv.Metrics(), service.OpCloak)
	}
	var cloakBytes float64
	for i, h := range hosts {
		sp := parent.child("frontend.cloak")
		_, err := front.CloakV1(h)
		sp.end()
		if err != nil {
			return fmt.Errorf("frontend cloak %d: %w", h, err)
		}
		sp = parent.child("cluster.cloak")
		_, err = sys.coord.Cloak(ctx, h)
		sp.end()
		if err != nil {
			return fmt.Errorf("cluster cloak %d: %w", h, err)
		}
		sp = parent.child("service.cloak")
		p, err := direct[shardOf[i]].CloakV1(h)
		sp.end()
		if err != nil {
			return fmt.Errorf("service cloak %d: %w", h, err)
		}
		cloakBytes += lineBytes(service.Request{V: service.ProtocolVersion, Op: service.OpCloak, User: h}) +
			lineBytes(service.Envelope{V: service.ProtocolVersion, OK: true, Cloak: p})
	}
	var handleNs, handled float64
	for s, srv := range sys.shards {
		after := opStats(srv.Metrics(), service.OpCloak)
		handleNs += float64(after.Hist.SumNs - before[s].Hist.SumNs)
		handled += float64(after.Count - before[s].Count)
	}
	out.cloakHandleUs = ratio(handleNs, handled) / 1e3
	out.bytesPerCloak = ratio(cloakBytes, float64(len(hosts)))
	return nil
}

// frontendUploads sends the restating upload batches through the
// coordinator's listener on one connection, then forwards them to the
// shards (untimed) before the next rung runs.
func frontendUploads(ctx context.Context, sys *system, parent spanRef, restate [][]service.UploadEntry) error {
	cl, err := sys.dial()
	if err != nil {
		return err
	}
	defer cl.Close() // every call below has had its reply
	for _, b := range restate {
		sp := parent.child("frontend.upload_batch")
		n, err := cl.UploadBatch(b)
		sp.end()
		if err == nil && n != len(b) {
			err = fmt.Errorf("%d of %d entries accepted", n, len(b))
		}
		if err != nil {
			return fmt.Errorf("frontend upload_batch: %w", err)
		}
	}
	if err := sys.coord.Flush(ctx); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	return nil
}

// clusterUploads makes the same uploads on the coordinator's API in
// process, one span per batch.
func clusterUploads(ctx context.Context, sys *system, parent spanRef, restate [][]service.UploadEntry) error {
	for _, b := range restate {
		sp := parent.child("cluster.upload")
		for _, e := range b {
			if err := sys.coord.Upload(ctx, cluster.UploadRequest{User: e.User, Peers: e.Peers, Profile: e.Profile}); err != nil {
				return fmt.Errorf("cluster upload: %w", err)
			}
		}
		sp.endN(len(b))
	}
	return nil
}

// noopRotates forwards every queued upload (untimed), then alternates
// rotates with nothing new to build through the coordinator's listener
// and on its API in process.
func noopRotates(ctx context.Context, sys *system, parent spanRef) error {
	if err := sys.coord.Flush(ctx); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	cl, err := sys.dial()
	if err != nil {
		return err
	}
	defer cl.Close() // every rotate below has had its reply
	for i := 0; i < ladderNoops; i++ {
		sp := parent.child("frontend.rotate_noop")
		_, err := cl.Rotate()
		sp.end()
		if err != nil {
			return fmt.Errorf("frontend no-op rotate: %w", err)
		}
		sp = parent.child("cluster.rotate_noop")
		_, err = sys.coord.Rotate(ctx)
		sp.end()
		if err != nil {
			return fmt.Errorf("no-op rotate: %w", err)
		}
	}
	return nil
}

// epochRequests converts one upload batch to the epoch layer's form.
func epochRequests(b []service.UploadEntry) []epoch.UploadRequest {
	reqs := make([]epoch.UploadRequest, len(b))
	for i, e := range b {
		reqs[i] = epoch.UploadRequest{User: e.User, Peers: e.Peers, Profile: e.Profile.Core()}
	}
	return reqs
}

// restating returns upload batches in which each of users restates its
// upload in uploads (with its profile on ingest), so they change no
// state.
func (in *inputs) restating(uploads map[int32][]service.PeerRank, users []int32) [][]service.UploadEntry {
	entries := make([]service.UploadEntry, len(users))
	for i, u := range users {
		entries[i] = in.entry(u, uploads[u])
	}
	return batches(entries)
}

// headOf returns at most the first ladderBatches batches' worth of users.
func headOf(users []int32) []int32 {
	return users[:min(len(users), ladderBatches*uploadBatch)]
}

// entry renders one user's upload of peers (with its profile on ingest).
func (in *inputs) entry(user int32, peers []service.PeerRank) service.UploadEntry {
	e := service.UploadEntry{User: user, Peers: peers}
	if in.profiles != nil {
		p := in.profiles[user]
		e.Profile = &service.ProfileSpec{K: p.K, MaxArea: p.MaxArea}
	}
	return e
}

// applied returns the reference uploads with write steps applied on
// top, and the users whose list they changed.
func (r *reference) applied(steps ...tick) (map[int32][]service.PeerRank, map[int32]struct{}) {
	next := make(map[int32][]service.PeerRank, len(r.uploads))
	for u, p := range r.uploads {
		next[u] = p
	}
	changed := make(map[int32]struct{})
	for _, t := range steps {
		for _, b := range t.batches {
			for _, e := range b {
				if !equalPeers(next[e.User], e.Peers) {
					changed[e.User] = struct{}{}
				}
				next[e.User] = e.Peers
			}
		}
	}
	return next, changed
}

func equalPeers(a, b []service.PeerRank) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// blocks cuts hosts into ladderBlock-sized runs.
func blocks(hosts []int32) [][]int32 {
	var out [][]int32
	for lo := 0; lo < len(hosts); lo += ladderBlock {
		hi := lo + ladderBlock
		if hi > len(hosts) {
			hi = len(hosts)
		}
		out = append(out, hosts[lo:hi])
	}
	return out
}

// opStats returns one operation's counters from a request-metrics
// snapshot (zero when the operation was never seen).
func opStats(m *metrics.RequestMetrics, op service.Op) metrics.OpSnapshot {
	for _, o := range m.Snapshot().Ops {
		if o.Op == string(op) {
			return o
		}
	}
	return metrics.OpSnapshot{}
}

// lineBytes is the size of v as one protocol line: its encoding/json
// encoding plus the newline.
func lineBytes(v any) float64 {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return float64(len(b) + 1)
}
