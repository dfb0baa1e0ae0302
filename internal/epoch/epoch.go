// Package epoch is the live re-clustering pipeline that replaces the
// freeze-once anonymizer lifecycle: uploads are accepted continuously,
// a configurable rebuild policy (upload count, fraction of users
// changed, or an explicit rotate) triggers background rebuilds — WPG
// construction, component-parallel centralized clustering, registry
// registration — and each completed rebuild is published as an
// immutable generation behind an atomic pointer. Cloak requests always
// read the current generation lock-free while the next one builds, so
// rebuilds never stall the hot path.
//
// Rebuilds are incremental by default: the manager tracks which users'
// rankings changed since the previous build, carries the previous WPG,
// its components and their clustering forward, and on the next build
// replaces only the adjacency rows those changes touch (every other row
// is shared copy-on-write with the previous generation) and
// re-clusters only the connected components ("shards") holding a
// changed row or a cluster-dirty user. The remaining shards splice
// their clusters from the previous build — safe because Theorem 4.4
// cluster isolation makes each component an independent clustering
// unit, and proven before every splice by every member still sharing
// its whole row with the previous graph. The published output is
// bit-identical to a from-scratch rebuild.
//
// Determinism contract: the epoch transcript (which epochs were
// triggered, why, and what each one built) is a pure function of the
// accepted upload sequence and the policy. Triggers are decided and
// snapshotted synchronously inside Upload/Rotate, builds drain a serial
// queue in trigger order, and the transcript carries no wall-clock
// values — so a fixed upload sequence plus policy produces a
// byte-identical transcript on every run, which is what lets the
// internal/sim invariant harness drive the pipeline. The shard
// accounting (shards=rebuilt/total) is part of the transcript: it too
// is a pure function of the upload sequence.
//
// A manager holds only the serving generation and the state the next
// build carries forward. Each epoch's clustering is self-contained
// (Theorem 4.4), so no past generation ever answers a cloak; the
// transcript is the record of past epochs, and a caller that checks
// generations one by one keeps the one each RotateAndWait returns.
package epoch

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonexposure/internal/anonymizer"
	"nonexposure/internal/core"
	"nonexposure/internal/graph"
	"nonexposure/internal/metrics"
	"nonexposure/internal/trace"
	"nonexposure/internal/wpg"
)

// RankedPeer is one entry of a device's proximity measurement: the
// peer's id and its RSS rank (1 = strongest signal). The JSON tags make
// the type usable directly on the service wire (internal/service
// aliases it as PeerRank).
type RankedPeer struct {
	Peer int32 `json:"peer"`
	Rank int32 `json:"rank"`
}

// UploadRequest is the upload API: one user's ranked peer list plus an
// optional privacy profile. Profile semantics are sticky per user with
// last-write-wins, and the pointer distinguishes "absent" from
// "explicit zero": a nil Profile leaves any stored profile untouched, a
// non-nil Profile replaces it, and the explicit zero profile
// (&core.Profile{}) reverts the user to the service defaults. A profile
// change counts as a content change for the rebuild policy and the
// dirty-set tracker even when the peer list is unchanged — the
// clustering the user needs has changed; a nil Profile never does.
type UploadRequest struct {
	User    int32
	Peers   []RankedPeer
	Profile *core.Profile
}

// Validate rejects requests the pipeline could never honor: a user or
// peer outside [0, numUsers), a rank below 1, or an invalid profile.
// The cluster coordinator runs it before storing an upload, so a shard
// never rejects an upload the coordinator accepted.
func (r UploadRequest) Validate(numUsers int) error {
	if int(r.User) < 0 || int(r.User) >= numUsers {
		return fmt.Errorf("epoch: user %d out of range [0,%d)", r.User, numUsers)
	}
	for _, pr := range r.Peers {
		if int(pr.Peer) < 0 || int(pr.Peer) >= numUsers {
			return fmt.Errorf("epoch: peer %d out of range [0,%d)", pr.Peer, numUsers)
		}
		if pr.Rank < 1 {
			return fmt.Errorf("epoch: rank %d < 1 for peer %d", pr.Rank, pr.Peer)
		}
	}
	if r.Profile != nil {
		if err := r.Profile.Validate(numUsers); err != nil {
			return fmt.Errorf("epoch: %w", err)
		}
	}
	return nil
}

// CloakResult is one served cloak: the cluster, the paper's message
// accounting, the generation that answered, the anonymity level the
// cluster actually satisfies (max effective k_i over its members — at
// least the service k), and whether the requesting user's own MaxArea
// bound was exceeded (degraded-but-served: the cluster is still a valid
// anonymity set, it is just larger than the user finds useful).
type CloakResult struct {
	Cluster    *core.Cluster
	Cost       int
	Epoch      uint64
	EffectiveK int
	Degraded   bool
}

// ClusterInfo is a published generation's per-cluster profile metadata,
// aligned with cluster IDs. It exists only on generations built with at
// least one non-default profile stored (Generation.Meta is nil
// otherwise, keeping default runs bit-identical and overhead-free).
type ClusterInfo struct {
	// EffK is the largest effective anonymity floor over the cluster's
	// members: max(service k, profile k_i).
	EffK int
	// Area is the estimated cloak area (WithAreaEstimator); HasArea
	// reports whether an estimate was available.
	Area    float64
	HasArea bool
}

// Policy decides when a new epoch is triggered. The count and frac
// conditions are checked after every accepted upload; a zero value
// disables that condition. The zero Policy never auto-triggers — only
// explicit Rotate calls start rebuilds, which reproduces the legacy
// freeze-once lifecycle.
type Policy struct {
	// EveryUploads triggers after this many accepted uploads since the
	// previous trigger.
	EveryUploads int
	// ChangedFrac triggers once the fraction of the population whose
	// ranking actually changed since the previous trigger reaches this
	// value (0 < ChangedFrac <= 1).
	ChangedFrac float64
	// MaxStaleness bounds how long accepted uploads may wait without any
	// trigger firing: a background timer rotates once uploads have been
	// pending that long (0 disables the timer). Timer-driven triggers
	// carry wall-clock placement, so deterministic-transcript harnesses
	// leave this at 0.
	MaxStaleness time.Duration
}

// String renders the policy for logs and the epoch status payload.
func (p Policy) String() string {
	var parts []string
	if p.EveryUploads > 0 {
		parts = append(parts, fmt.Sprintf("uploads>=%d", p.EveryUploads))
	}
	if p.ChangedFrac > 0 {
		parts = append(parts, fmt.Sprintf("changed>=%.3f", p.ChangedFrac))
	}
	if p.MaxStaleness > 0 {
		parts = append(parts, fmt.Sprintf("stale>=%v", p.MaxStaleness))
	}
	if len(parts) == 0 {
		return "manual"
	}
	return strings.Join(parts, "|")
}

// Trigger reasons recorded in each generation and its transcript line.
const (
	TriggerCount  = "count"  // Policy.EveryUploads fired
	TriggerFrac   = "frac"   // Policy.ChangedFrac fired
	TriggerRotate = "rotate" // explicit Rotate (or a freeze)
	TriggerStale  = "stale"  // Policy.MaxStaleness timer fired
)

// Generation is one immutable published epoch: the proximity graph
// built from the uploads snapshotted at trigger time, a fully built
// anonymizer over it, and the bookkeeping that went into the
// deterministic transcript.
type Generation struct {
	// Epoch is the 1-based generation number, assigned at trigger time.
	Epoch uint64
	// Trigger records why this epoch was started (Trigger* constants).
	Trigger string
	// Seq is the total number of accepted uploads when the trigger
	// fired; the generation reflects exactly that upload prefix.
	Seq uint64
	// UploadsIn is how many uploads arrived since the previous trigger —
	// the epoch's build cost in the paper's message accounting (each
	// upload is one proximity message). Billed to the first Cloak served
	// from this generation.
	UploadsIn int
	// Changed is how many distinct users' rankings actually changed
	// since the previous trigger.
	Changed int

	// Build results (zero/nil when BuildErr != nil).
	Graph    *wpg.Graph
	Anon     *anonymizer.Server
	Edges    int
	Clusters int
	Skipped  int
	BuildErr error

	// ShardsTotal and ShardsRebuilt are the incremental rebuild's shard
	// accounting: the WPG's connected-component count and how many of
	// those components actually re-ran clustering (the rest spliced
	// their clusters from the previous build). A build from scratch —
	// the first one, or the one after a failed build — reports
	// ShardsRebuilt == ShardsTotal. Both are deterministic functions of
	// the upload sequence, so they appear in the transcript.
	ShardsTotal   int
	ShardsRebuilt int

	// Profiled is how many users carried a non-default privacy profile
	// in this generation's snapshot; KMax is the largest effective k any
	// cluster had to satisfy (== the service k when Profiled is 0), and
	// Degraded counts users whose cluster's estimated area exceeds their
	// own MaxArea bound (0 without an area estimator). Meta holds the
	// per-cluster profile metadata, indexed by cluster ID; it is nil —
	// and the three counters stay at their defaults — when no profile
	// was stored, keeping default-profile generations identical to
	// pre-profile ones.
	Profiled int
	KMax     int
	Degraded int
	Meta     []ClusterInfo

	// profiles is the non-default-profile snapshot the generation was
	// built from (nil when Profiled is 0); Cloak reads it to evaluate
	// the requesting user's own bounds.
	profiles map[int32]core.Profile

	// BuildDuration is wall-clock observability only; it never enters
	// the transcript (which must stay deterministic).
	BuildDuration time.Duration

	// Trace is the build's span tree (queue wait, WPG construction,
	// clustering with per-shard children, publish), populated when the
	// build ran. Like BuildDuration it is observability only and never
	// enters the transcript.
	Trace *trace.Span

	// done is closed once the build finished, published when it
	// succeeded, and left the pending count — or once Close dropped the
	// queued build.
	done chan struct{}
}

// transcriptLine renders the generation's deterministic transcript
// entry. No durations, no timestamps. The profile accounting appears
// only when at least one non-default profile was stored, so
// default-profile transcripts stay byte-identical to pre-profile ones
// (the same additive-suffix rule the bench cell IDs follow); it is
// still deterministic because the area estimator must be a pure
// function of the member set.
func (g *Generation) transcriptLine() string {
	if g.BuildErr != nil {
		return fmt.Sprintf("epoch=%d trigger=%s seq=%d uploads=%d changed=%d err=%v",
			g.Epoch, g.Trigger, g.Seq, g.UploadsIn, g.Changed, g.BuildErr)
	}
	line := fmt.Sprintf("epoch=%d trigger=%s seq=%d uploads=%d changed=%d edges=%d clusters=%d skipped=%d shards=%d/%d",
		g.Epoch, g.Trigger, g.Seq, g.UploadsIn, g.Changed, g.Edges, g.Clusters, g.Skipped, g.ShardsRebuilt, g.ShardsTotal)
	if g.Profiled > 0 {
		line += fmt.Sprintf(" profiled=%d kmax=%d degraded=%d", g.Profiled, g.KMax, g.Degraded)
	}
	return line
}

// Sentinel errors.
var (
	// ErrNotReady: no generation has been published yet. The message
	// keeps the words "not frozen", which clients have long matched on.
	ErrNotReady = errors.New("epoch: graph not frozen yet (no epoch published; upload then freeze or rotate)")
	// ErrNoNewUploads: a rotate was requested but nothing changed since
	// the previous trigger, so the rebuild would reproduce the serving
	// generation exactly.
	ErrNoNewUploads = errors.New("epoch: no new uploads since the last rebuild")
	// ErrClosed: the manager was shut down.
	ErrClosed = errors.New("epoch: manager closed")
)

// Manager runs the pipeline. Safe for concurrent use: uploads, rotates
// and the builder's bookkeeping serialize on one mutex, held only for
// bookkeeping (the longest hold is a trigger's snapshot copy); builds
// run on a background goroutine draining a serial queue, and Cloak
// reads the published generation through an atomic pointer without
// taking any lock. A method given a ctx that is already done fails with
// ctx.Err() before it locks; a ctx that dies while its caller waits for
// the mutex does not abort that wait. Sync and RotateAndWait stop
// waiting for a build when their ctx dies.
type Manager struct {
	numUsers int
	k        int
	workers  int
	policy   Policy
	em       *metrics.EpochMetrics
	tr       *trace.Recorder
	areaEst  func(members []int32) (float64, bool)

	mu sync.Mutex

	// All fields below are guarded by mu.
	uploads map[int32][]RankedPeer
	// profiles stores only non-default profiles (an upload with the zero
	// Profile deletes the entry), so len(profiles) is the profiled-user
	// count and iteration cost scales with profiled users, not the
	// population. Lazily allocated on the first non-default profile.
	profiles map[int32]core.Profile
	// changed: users whose stored ranking content changed since the
	// previous trigger ("edge-dirty" — only edges incident to these
	// users can differ from the previous build's WPG).
	changed map[int32]struct{}
	// dirty: changed users plus every peer on their old and new lists
	// ("cluster-dirty" — a connected component containing none of these
	// is provably untouched and its clusters can be spliced).
	dirty        map[int32]struct{}
	uploadsSince int
	seq          uint64
	nextEpoch    uint64
	queue        []buildJob
	building     bool
	closed       bool
	// pending counts triggered epochs whose waiters are not yet
	// released: up one per trigger, down one when builderLoop releases a
	// finished build or Close drops a queued one. Status and the pending
	// gauge both read it.
	pending int
	// latest is the most recently triggered generation (nil before the
	// first trigger). Builds run in trigger order, so once its done
	// channel is closed every earlier build has finished too.
	latest       *Generation
	transcript   []string
	builds       uint64
	swaps        uint64
	lastBuildDur time.Duration
	// lastTrigger is the wall-clock time of the latest trigger (manager
	// creation before the first one) — observability for the staleness
	// timer only, never part of the transcript.
	lastTrigger time.Time
	// stalenessStop is non-nil while the staleness timer goroutine runs;
	// closing it stops the loop.
	stalenessStop chan struct{}

	// prev carries the last successful build's graph, components, and
	// per-component clustering forward for splicing. Owned by the
	// builder: it is only touched by build(), and successive builder
	// goroutines are ordered through mu (a builder is only started by a
	// trigger that observed building == false under the lock).
	prev *builderState

	cur atomic.Pointer[Generation]
}

type buildJob struct {
	gen      *Generation
	uploads  map[int32][]RankedPeer
	profiles map[int32]core.Profile // nil when no non-default profile is stored
	changed  map[int32]struct{}
	dirty    map[int32]struct{}
	// queuedAt marks the trigger time so the build can report its queue
	// wait (wall-clock observability only).
	queuedAt time.Time
}

// builderState is what a successful build leaves behind for the next
// incremental one: its graph, its components (sorted members, ordered
// by smallest member) with their clustering, and a dense index from
// each vertex to the smallest member of its component. That key stays
// valid for every component a later build carries over, so the index
// is patched only where components were recomputed. None of this lives
// on the Generation: callers may keep a generation after it stops
// serving, and only the builder needs the carried indices.
type builderState struct {
	graph  *wpg.Graph
	comps  []core.Component
	compOf []int32
}

// Option configures a Manager.
type Option func(*Manager)

// WithK sets the anonymity level (default 10, Table I).
func WithK(k int) Option { return func(m *Manager) { m.k = k } }

// WithWorkers sets the clustering worker count per rebuild (<= 0
// selects GOMAXPROCS).
func WithWorkers(n int) Option { return func(m *Manager) { m.workers = n } }

// WithPolicy sets the automatic rebuild policy (default: manual only).
func WithPolicy(p Policy) Option { return func(m *Manager) { m.policy = p } }

// WithMetrics attaches epoch metrics (nil is fine — all hooks are
// nil-safe).
func WithMetrics(em *metrics.EpochMetrics) Option { return func(m *Manager) { m.em = em } }

// WithTraceRecorder attaches a recorder that receives every completed
// build's span tree (nil is fine — recording is nil-safe).
func WithTraceRecorder(r *trace.Recorder) Option { return func(m *Manager) { m.tr = r } }

// WithAreaEstimator attaches the cloak-area estimator the MaxArea
// enforcement path needs (default nil: area bounds are not evaluated
// and no user is ever reported degraded). The anonymizer itself only
// sees proximity ranks, never coordinates, so the harness that owns the
// positions (sim, bench, cloaksim) injects the mapping from a cluster's
// member set to its cloak area. f must be a pure function of the member
// set for the generation it is called under — the degraded count is
// part of the deterministic transcript.
func WithAreaEstimator(f func(members []int32) (area float64, ok bool)) Option {
	return func(m *Manager) { m.areaEst = f }
}

// New returns a Manager for a population of numUsers devices.
func New(numUsers int, opts ...Option) (*Manager, error) {
	if numUsers < 1 {
		return nil, fmt.Errorf("epoch: population %d < 1", numUsers)
	}
	m := &Manager{
		numUsers:    numUsers,
		k:           10,
		uploads:     make(map[int32][]RankedPeer),
		changed:     make(map[int32]struct{}),
		dirty:       make(map[int32]struct{}),
		lastTrigger: time.Now(),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.k < 1 {
		return nil, fmt.Errorf("epoch: k %d < 1", m.k)
	}
	if m.policy.ChangedFrac < 0 || m.policy.ChangedFrac > 1 {
		return nil, fmt.Errorf("epoch: ChangedFrac %v outside [0,1]", m.policy.ChangedFrac)
	}
	if m.policy.MaxStaleness < 0 {
		return nil, fmt.Errorf("epoch: MaxStaleness %v < 0", m.policy.MaxStaleness)
	}
	if m.policy.MaxStaleness > 0 {
		m.startStalenessLocked() // no concurrency before New returns
	}
	return m, nil
}

// startStalenessLocked launches the staleness timer goroutine if it is
// not already running. Callers hold the manager lock (or are inside
// New). The timer also starts lazily, via setProfileLocked, when the
// first profile carrying a MaxStaleness bound arrives on a manager whose
// policy alone never needed it, and stops itself once the effective
// bound drops back to zero.
func (m *Manager) startStalenessLocked() {
	if m.stalenessStop != nil || m.closed {
		return
	}
	m.stalenessStop = make(chan struct{})
	go m.stalenessLoop()
}

// effectiveStaleLocked resolves the pipeline's staleness bound: the
// minimum over the policy's MaxStaleness and every stored profile's (0
// entries mean unset). Callers hold the manager lock. O(profiled
// users), which the non-default-only profiles map keeps small.
func (m *Manager) effectiveStaleLocked() time.Duration {
	bound := m.policy.MaxStaleness
	for _, p := range m.profiles {
		if p.MaxStaleness > 0 && (bound == 0 || p.MaxStaleness < bound) {
			bound = p.MaxStaleness
		}
	}
	return bound
}

// stalenessLoop is the max-staleness timer: it periodically triggers a
// rebuild when uploads have been waiting longer than the effective
// bound allows without any other trigger firing. The bound is
// re-resolved every iteration — the minimum over the policy's
// MaxStaleness and every stored profile's — so a newly uploaded tighter
// profile takes effect on the next tick. When the bound drops to 0
// (policy unset and every staleness-bearing profile withdrawn) the loop
// stops instead of polling an idle manager forever; setProfileLocked
// restarts it lazily, and both run under the manager lock, so a bound
// appearing while the loop decides to stop is either visible to it or
// restarts a fresh loop after it exits. It also exits when the manager
// closes.
func (m *Manager) stalenessLoop() {
	// One reused timer for the life of the loop. time.After would
	// allocate a fresh timer (and its runtime bookkeeping) every
	// iteration, which an idle manager with a short bound turns into
	// steady garbage; Reset on a drained timer is free.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		bound := m.effectiveStaleLocked()
		if bound == 0 {
			m.stalenessStop = nil
			m.mu.Unlock()
			return
		}
		if m.uploadsSince > 0 && time.Since(m.lastTrigger) >= bound {
			m.triggerLocked(TriggerStale)
		}
		stop := m.stalenessStop
		m.mu.Unlock()
		interval := bound / 2
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		timer.Reset(interval)
		select {
		case <-stop:
			if !timer.Stop() {
				<-timer.C
			}
			return
		case <-timer.C:
		}
	}
}

// profileOfLocked returns the user's stored profile (zero = defaults).
func (m *Manager) profileOfLocked(user int32) core.Profile {
	return m.profiles[user]
}

// setProfileLocked stores the user's profile, keeping the map
// non-default-only, and lazily starts the staleness timer when a
// staleness-bearing profile first appears.
func (m *Manager) setProfileLocked(user int32, p core.Profile) {
	if p.IsDefault() {
		delete(m.profiles, user)
		return
	}
	if m.profiles == nil {
		m.profiles = make(map[int32]core.Profile)
	}
	m.profiles[user] = p
	if p.MaxStaleness > 0 {
		m.startStalenessLocked()
	}
}

// Upload folds one user's ranked peer list and privacy profile into the
// next epoch's input and fires the rebuild policy if its threshold is
// reached. It is a one-entry UploadBatch. A re-upload identical to the
// user's stored ranking that carries no profile (or restates the stored
// one) counts toward EveryUploads but not toward ChangedFrac; a profile
// change alone is a change (the clustering the user needs moved, so the
// user and both peer lists join the dirty closure). An accepted upload
// is never rolled back. Returns ErrClosed after Close, before any
// validation.
func (m *Manager) Upload(ctx context.Context, req UploadRequest) error {
	_, err := m.UploadBatch(ctx, []UploadRequest{req})
	return err
}

// applyUploadLocked folds one validated upload into the pending state,
// keeping its own copy of the peer list and profile, and evaluates the
// rebuild policy. Callers hold the manager lock.
func (m *Manager) applyUploadLocked(req UploadRequest) {
	user, prof := req.User, req.Profile
	cp := append([]RankedPeer(nil), req.Peers...)
	if prevList := m.uploads[user]; !equalRanks(prevList, cp) ||
		(prof != nil && m.profileOfLocked(user) != *prof) {
		m.changed[user] = struct{}{}
		// Cluster-dirty closure: the user's old and new peers are the
		// only other vertices whose incident edges can change, so they
		// bound the components the next build must re-cluster. A
		// profile-only change dirties the same closure — the user's
		// component must re-cluster under the new floor.
		m.dirty[user] = struct{}{}
		for _, pr := range prevList {
			m.dirty[pr.Peer] = struct{}{}
		}
		for _, pr := range cp {
			m.dirty[pr.Peer] = struct{}{}
		}
	}
	m.uploads[user] = cp
	if prof != nil {
		m.setProfileLocked(user, *prof)
	}
	m.seq++
	m.uploadsSince++
	if reason := m.policyFiredLocked(); reason != "" {
		m.triggerLocked(reason)
	}
}

// UploadBatch applies reqs strictly in slice order and stops at the
// first invalid entry, returning how many were applied (on error, also
// the index of the rejected request; later entries were not attempted).
// The result is indistinguishable from calling Upload serially — the
// rebuild policy is evaluated after every entry, so a mid-batch trigger
// snapshots exactly the prefix a serial caller would have triggered
// on — but the manager lock is taken once for the whole batch instead
// of once per upload. A closed manager returns ErrClosed before looking
// at any entry.
func (m *Manager) UploadBatch(ctx context.Context, reqs []UploadRequest) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	for i, req := range reqs {
		if err := req.Validate(m.numUsers); err != nil {
			return i, err
		}
		m.applyUploadLocked(req)
	}
	return len(reqs), nil
}

func (m *Manager) policyFiredLocked() string {
	if m.policy.EveryUploads > 0 && m.uploadsSince >= m.policy.EveryUploads {
		return TriggerCount
	}
	if m.policy.ChangedFrac > 0 &&
		float64(len(m.changed)) >= m.policy.ChangedFrac*float64(m.numUsers) {
		return TriggerFrac
	}
	return ""
}

// triggerLocked assigns the next epoch number, snapshots the upload
// state and the dirty sets, resets the since-trigger counters, and
// enqueues the build. Callers hold the manager lock.
func (m *Manager) triggerLocked(reason string) *Generation {
	m.nextEpoch++
	gen := &Generation{
		Epoch:     m.nextEpoch,
		Trigger:   reason,
		Seq:       m.seq,
		UploadsIn: m.uploadsSince,
		Changed:   len(m.changed),
		done:      make(chan struct{}),
	}
	// Shallow copy: upload slices are copied on write and never mutated
	// afterwards, so the snapshot shares them safely.
	snap := make(map[int32][]RankedPeer, len(m.uploads))
	for u, p := range m.uploads {
		snap[u] = p
	}
	var profSnap map[int32]core.Profile
	if len(m.profiles) > 0 {
		profSnap = make(map[int32]core.Profile, len(m.profiles))
		for u, p := range m.profiles {
			profSnap[u] = p
		}
	}
	job := buildJob{gen: gen, uploads: snap, profiles: profSnap, changed: m.changed, dirty: m.dirty, queuedAt: time.Now()}
	m.uploadsSince = 0
	m.changed = make(map[int32]struct{})
	m.dirty = make(map[int32]struct{})
	m.lastTrigger = time.Now()
	m.latest = gen
	m.queue = append(m.queue, job)
	m.pending++
	m.em.SetPending(m.pending)
	if !m.building {
		m.building = true
		go m.builderLoop()
	}
	return gen
}

// Rotate forces a new epoch now, regardless of policy. It returns the
// assigned epoch number; the build itself completes in the background
// (use Sync to wait for publication). Rotating when nothing changed
// since the previous trigger returns ErrNoNewUploads — except for the
// very first epoch, which may legitimately be empty (a freeze before
// any upload).
func (m *Manager) Rotate(ctx context.Context) (uint64, error) {
	gen, err := m.rotate(ctx)
	if err != nil {
		return 0, err
	}
	return gen.Epoch, nil
}

// RotateAndWait is the synchronous freeze: Rotate, then wait for that
// rotation's own build, and return its generation — published, or
// carrying BuildErr. The generation comes from the rotation itself, so
// it is this rotation's own even when a build queued behind it has
// already replaced it as the serving one. Builds run in trigger order,
// so every earlier epoch has finished as well; later triggers are not
// waited for. The two phases report as "epoch.rotate" and "epoch.sync"
// children of the span on ctx. If Close drops the queued build,
// RotateAndWait returns ErrClosed.
func (m *Manager) RotateAndWait(ctx context.Context) (*Generation, error) {
	rsp := trace.FromContext(ctx).Child("epoch.rotate")
	gen, err := m.rotate(ctx)
	rsp.End()
	if err != nil {
		return nil, err
	}
	ssp := trace.FromContext(ctx).Child("epoch.sync")
	defer ssp.End()
	select {
	case <-gen.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if gen.BuildErr == ErrClosed {
		return nil, ErrClosed
	}
	return gen, nil
}

func (m *Manager) rotate(ctx context.Context) (*Generation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.nextEpoch > 0 && m.uploadsSince == 0 {
		return nil, ErrNoNewUploads
	}
	return m.triggerLocked(TriggerRotate), nil
}

// builderLoop drains the build queue serially (publication order ==
// trigger order, which the determinism contract requires), then exits;
// the next trigger restarts it. A finished build's waiters are released
// only once the loop has taken the next job or gone idle, so a Status
// read right after RotateAndWait returns no longer counts that build as
// pending.
func (m *Manager) builderLoop() {
	var built *Generation
	for {
		m.mu.Lock()
		if built != nil {
			m.pending-- // its waiters are released below
		}
		idle := len(m.queue) == 0 || m.closed
		var job buildJob
		if idle {
			m.building = false
		} else {
			job = m.queue[0]
			m.queue = m.queue[1:]
		}
		m.em.SetPending(m.pending)
		m.mu.Unlock()
		if built != nil {
			close(built.done)
		}
		if idle {
			return
		}
		m.build(job)
		built = job.gen
	}
}

// build constructs one generation from its snapshot and publishes it.
// Every stage is timed twice over: into the EpochMetrics stage
// aggregates (queue wait, WPG construction, clustering, publish) and
// into the build's span tree, which is attached to the Generation and
// recorded for the admin /tracez view.
func (m *Manager) build(job buildJob) {
	gen := job.gen
	root := trace.New(fmt.Sprintf("epoch.build/%d", gen.Epoch))
	gen.Trace = root
	start := time.Now()
	if !job.queuedAt.IsZero() {
		wait := start.Sub(job.queuedAt)
		m.em.ObserveStage(metrics.StageQueue, wait)
		root.AddStage(metrics.StageQueue, wait)
	}

	prev := m.prev
	// The carried state is consumed in place (its component index is
	// patched into the next one), so drop it now: a build that fails
	// from here on leaves the next one to start from scratch.
	m.prev = nil
	wsp := root.Child(metrics.StageWPG)
	var g *wpg.Graph
	var replaced []int32
	var err error
	if prev != nil {
		g, replaced, err = rewireChanged(job.uploads, prev.graph, job.changed)
	} else {
		g, err = BuildGraph(m.numUsers, job.uploads)
	}
	wsp.End()
	m.em.ObserveStage(metrics.StageWPG, wsp.Duration())

	var next *builderState
	if err == nil {
		// Per-vertex anonymity floors from the profile snapshot; nil when
		// every profile is default, which keeps the clustering call on
		// the exact uniform code path.
		var ks []int32
		if len(job.profiles) > 0 {
			ks = make([]int32, m.numUsers)
			for u, p := range job.profiles {
				ks[u] = p.K
			}
		}
		csp := root.Child(metrics.StageCluster)
		cctx := trace.NewContext(context.Background(), csp)
		res := m.clusterShards(cctx, g, prev, replaced, job.dirty, ks)
		var anon *anonymizer.Server
		anon, err = anonymizer.New(cctx, g, m.k, res.clusters, gen.UploadsIn)
		csp.End()
		m.em.ObserveStage(metrics.StageCluster, csp.Duration())
		if err == nil {
			gen.Graph = g
			gen.Anon = anon
			gen.Edges = g.NumEdges()
			gen.Clusters = len(res.clusters)
			gen.Skipped = res.skipped
			gen.ShardsTotal = res.total
			gen.ShardsRebuilt = res.rebuilt
			m.profileMeta(gen, job.profiles, res.clusters)
			m.em.ObserveShards(res.total, res.rebuilt)
			m.em.ObserveProfiles(gen.Profiled, gen.Degraded)
			next = res.state
		}
	}
	// A failed build drops the carried-forward state: the next job's
	// dirty sets describe the diff against this build's snapshot, which
	// never became a usable baseline, so the next build must start from
	// scratch.
	m.prev = next
	gen.BuildErr = err
	gen.BuildDuration = time.Since(start)
	m.em.ObserveBuild(gen.BuildDuration, err == nil)

	psp := root.Child(metrics.StagePublish)
	m.mu.Lock()
	m.builds++
	m.lastBuildDur = gen.BuildDuration
	m.transcript = append(m.transcript, gen.transcriptLine())
	if err == nil {
		// Publish: from here on every Cloak reads this generation. The
		// store shares the critical section with the counters, so Status
		// never pairs this build's swap count with the previous epoch.
		m.swaps++
		m.cur.Store(gen)
	}
	m.mu.Unlock()
	if err == nil {
		m.em.ObserveSwap()
	}
	psp.End()
	m.em.ObserveStage(metrics.StagePublish, psp.Duration())
	root.End()
	m.tr.Record(root)
}

// profileMeta fills the generation's profile accounting: per-cluster
// effective k and estimated area, the profiled-user count, the largest
// floor any cluster satisfies, and the degraded count (users whose
// cluster area exceeds their own MaxArea). It does nothing when no
// non-default profile is stored, so default-profile generations carry
// no metadata and no extra cost. Cluster IDs index the adopted slice
// (AdoptBatch registers in order), so Meta aligns with Cloak's clusters.
func (m *Manager) profileMeta(gen *Generation, profiles map[int32]core.Profile, clusters []*core.Cluster) {
	gen.Profiled = len(profiles)
	if gen.Profiled == 0 {
		return
	}
	gen.profiles = profiles
	gen.KMax = m.k
	meta := make([]ClusterInfo, len(clusters))
	for i, c := range clusters {
		effK := m.k
		for _, v := range c.Members {
			if p, ok := profiles[v]; ok && int(p.K) > effK {
				effK = int(p.K)
			}
		}
		meta[i].EffK = effK
		if effK > gen.KMax {
			gen.KMax = effK
		}
		if m.areaEst != nil {
			meta[i].Area, meta[i].HasArea = m.areaEst(c.Members)
		}
		if meta[i].HasArea {
			for _, v := range c.Members {
				if p, ok := profiles[v]; ok && p.MaxArea > 0 && meta[i].Area > p.MaxArea {
					gen.Degraded++
				}
			}
		}
	}
	gen.Meta = meta
}

// shardBuild is one build's merged clustering output plus its shard
// accounting and the state carried forward for the next build.
type shardBuild struct {
	clusters []*core.Cluster
	skipped  int
	total    int
	rebuilt  int
	state    *builderState
}

// clusterShards clusters the graph component by component: every
// component that provably did not change since the previous build
// (identical membership, no cluster-dirty vertex, identical induced
// subgraph) keeps its clustering, core.ClusterComponents re-clusters
// the rest, and core.MergeClusters orders and numbers the result
// exactly as core.CentralizedTConnParallel emits it, so the output is
// bit-identical to a from-scratch clustering. replaced lists the
// vertices whose rows g does not share with prev's graph.
func (m *Manager) clusterShards(ctx context.Context, g *wpg.Graph, prev *builderState, replaced []int32, dirty map[int32]struct{}, ks []int32) *shardBuild {
	cctx, sp := trace.StartChild(ctx, "core.cluster")
	defer sp.End()
	var st *builderState
	var rebuild []int
	if prev != nil {
		st, rebuild = carryComponents(prev, g, replaced, dirty)
	} else {
		members := g.Components()
		st = &builderState{graph: g, comps: make([]core.Component, len(members)), compOf: make([]int32, g.NumVertices())}
		rebuild = make([]int, len(members))
		for i, ms := range members {
			st.comps[i].Members = ms
			rebuild[i] = i
			for _, v := range ms {
				st.compOf[v] = ms[0]
			}
		}
	}
	core.ClusterComponents(cctx, g, st.comps, rebuild, m.k, ks, m.workers)
	out := &shardBuild{clusters: core.MergeClusters(st.comps), total: len(st.comps), rebuilt: len(rebuild), state: st}
	for _, c := range st.comps {
		for _, u := range c.Undersized {
			out.skipped += len(u)
		}
	}
	return out
}

// carryComponents derives the next build's components from prev's
// without walking the whole graph. A previous component is broken when
// it holds a seed: a cluster-dirty vertex, or a vertex whose row g
// replaced. Every other component kept every member's row — any edge
// gained or lost would have replaced a member's row — so it is still a
// component of g, carried over with its clustering and no allocation.
// The broken components' vertices are re-partitioned by BFS over g;
// each new component there holds a seed, so none of them can splice.
// That is exactly the rule the structural check states (same
// membership, no dirty member, identical induced subgraph), and each
// carried component re-proves it by row identity, O(1) per vertex. The
// seeds make that proof a certainty, so a failure is an internal
// invariant violation and panics rather than silently rebuilding.
//
// prev is consumed: its component index is patched into the result's.
// rebuild lists the positions of the recomputed components.
func carryComponents(prev *builderState, g *wpg.Graph, replaced []int32, dirty map[int32]struct{}) (*builderState, []int) {
	n := g.NumVertices()
	compOf := prev.compOf
	// broken is indexed by component key (smallest member).
	broken := make([]bool, n)
	for v := range dirty {
		broken[compOf[v]] = true
	}
	for _, v := range replaced {
		broken[compOf[v]] = true
	}

	visited := make([]bool, n)
	var fresh [][]int32
	for _, c := range prev.comps {
		if !broken[c.Members[0]] {
			continue
		}
		for _, s := range c.Members {
			if visited[s] {
				continue
			}
			visited[s] = true
			comp := []int32{s}
			for head := 0; head < len(comp); head++ {
				for _, e := range g.Neighbors(comp[head]) {
					if !visited[e.To] {
						visited[e.To] = true
						comp = append(comp, e.To)
					}
				}
			}
			slices.Sort(comp)
			fresh = append(fresh, comp)
		}
	}
	slices.SortFunc(fresh, func(a, b []int32) int { return cmp.Compare(a[0], b[0]) })

	// Merge the carried components with the fresh ones, both ordered by
	// smallest member.
	total := len(prev.comps) + len(fresh)
	for _, c := range prev.comps {
		if broken[c.Members[0]] {
			total--
		}
	}
	st := &builderState{graph: g, comps: make([]core.Component, 0, total), compOf: compOf}
	carry := func(i int) {
		c := prev.comps[i]
		if broken[c.Members[0]] {
			return
		}
		for _, v := range c.Members {
			if !wpg.SharedRow(prev.graph, g, v) {
				panic(fmt.Sprintf("epoch: carried component %d: row of %d not shared with the previous graph", c.Members[0], v))
			}
		}
		st.comps = append(st.comps, c)
	}
	rebuild := make([]int, 0, len(fresh))
	i := 0
	for _, members := range fresh {
		for ; i < len(prev.comps) && prev.comps[i].Members[0] < members[0]; i++ {
			carry(i)
		}
		rebuild = append(rebuild, len(st.comps))
		st.comps = append(st.comps, core.Component{Members: members})
	}
	for ; i < len(prev.comps); i++ {
		carry(i)
	}
	for _, members := range fresh {
		for _, v := range members {
			compOf[v] = members[0]
		}
	}
	return st, rebuild
}

// Cloak serves a request from the current generation, lock-free with
// respect to any in-flight rebuild. Cost follows the paper's
// accounting: the first request served from each generation is billed
// the uploads that went into its build (the generation's anonymizer
// holds that bill), every other request is free.
// EffectiveK reports the anonymity level the serving cluster actually
// satisfies (the service k unless a member's profile demanded more);
// Degraded reports whether the requesting user's own MaxArea bound was
// exceeded (always false without WithAreaEstimator).
func (m *Manager) Cloak(ctx context.Context, host int32) (CloakResult, error) {
	csp := trace.FromContext(ctx).Child("epoch.cloak")
	defer csp.End()
	gen := m.cur.Load()
	if gen == nil {
		return CloakResult{}, ErrNotReady
	}
	asp := csp.Child("anonymizer.cloak")
	cluster, cost, err := gen.Anon.Cloak(ctx, host)
	asp.End()
	if err != nil {
		return CloakResult{Epoch: gen.Epoch}, err
	}
	res := CloakResult{Cluster: cluster, Cost: cost, Epoch: gen.Epoch, EffectiveK: m.k}
	// Meta and the per-host profile only matter when someone in this
	// generation is profiled; a raised floor or area bound implies a
	// stored non-default profile, so Profiled == 0 keeps the hot path
	// free of the meta load and map probe.
	if gen.Profiled > 0 && int(cluster.ID) < len(gen.Meta) {
		info := gen.Meta[cluster.ID]
		res.EffectiveK = info.EffK
		if p, ok := gen.profiles[host]; ok && p.MaxArea > 0 && info.HasArea && info.Area > p.MaxArea {
			res.Degraded = true
		}
	}
	return res, nil
}

// Current returns the serving generation (nil before the first
// publish).
func (m *Manager) Current() *Generation { return m.cur.Load() }

// Sync blocks until every epoch triggered before the call has finished
// building — published, failed, or dropped by Close — or ctx dies. It
// waits for the latest of them only: builds run in trigger order, so
// the others have finished by then. Epochs triggered while Sync waits
// are not waited for. A freeze-style caller rotates and then syncs so
// the reply only goes out once cloaking is live.
func (m *Manager) Sync(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	gen := m.latest
	m.mu.Unlock()
	if gen == nil {
		return nil
	}
	select {
	case <-gen.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting uploads and rotates and drops any queued (not
// yet started) builds, releasing their waiters. An in-flight build
// finishes and publishes, and its waiters are released then.
// Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	if m.stalenessStop != nil {
		close(m.stalenessStop)
	}
	for _, job := range m.queue {
		job.gen.BuildErr = ErrClosed
		close(job.gen.done)
	}
	m.pending -= len(m.queue)
	m.em.SetPending(m.pending)
	m.queue = nil
}

// Transcript returns the deterministic epoch transcript: one line per
// completed build, in epoch order. Call Sync first for a complete view.
func (m *Manager) Transcript() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.transcript...)
}

// Status is a point-in-time view of the pipeline for stats/epoch
// protocol payloads.
type Status struct {
	// Epoch and Published describe the serving generation (Epoch 0 and
	// Published false before the first publish).
	Epoch     uint64
	Published bool
	Edges     int
	Clusters  int
	Skipped   int
	// ShardsTotal and ShardsRebuilt are the serving generation's shard
	// accounting (see Generation).
	ShardsTotal   int
	ShardsRebuilt int
	// KMax and Degraded are the serving generation's profile accounting
	// (see Generation); Profiled counts users whose currently stored
	// profile is non-default, which may run ahead of the serving
	// generation's snapshot.
	KMax     int
	Degraded int
	Profiled int

	Users               int
	Uploads             int    // distinct users with a stored upload
	UploadsSeen         uint64 // total accepted uploads
	SinceTrigger        int    // uploads since the last trigger
	ChangedSinceTrigger int    // distinct users changed since the last trigger
	Pending             int    // triggered epochs whose build has not finished
	Builds              uint64
	Swaps               uint64
	LastBuildDuration   time.Duration
	Policy              Policy
}

// Status captures the pipeline state.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen := m.cur.Load() // under the lock, where build publishes and counts together
	st := Status{
		Users:               m.numUsers,
		Uploads:             len(m.uploads),
		Profiled:            len(m.profiles),
		UploadsSeen:         m.seq,
		SinceTrigger:        m.uploadsSince,
		ChangedSinceTrigger: len(m.changed),
		Pending:             m.pending,
		Builds:              m.builds,
		Swaps:               m.swaps,
		LastBuildDuration:   m.lastBuildDur,
		Policy:              m.policy,
	}
	if gen != nil {
		st.Epoch = gen.Epoch
		st.Published = true
		st.Edges = gen.Edges
		st.Clusters = gen.Clusters
		st.Skipped = gen.Skipped
		st.ShardsTotal = gen.ShardsTotal
		st.ShardsRebuilt = gen.ShardsRebuilt
		st.KMax = gen.KMax
		st.Degraded = gen.Degraded
	}
	return st
}

func equalRanks(a, b []RankedPeer) bool {
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

// BuildGraph assembles the WPG from per-user rank uploads exactly like
// wpg.Build does from raw measurements: an undirected edge (a,b) exists
// iff both users uploaded each other, with weight min(rank_a(b),
// rank_b(a)). The result is independent of map iteration order, which
// the determinism contract relies on.
func BuildGraph(n int, uploads map[int32][]RankedPeer) (*wpg.Graph, error) {
	type key struct{ a, b int32 }
	weights := make(map[key]int32)
	for user, peers := range uploads {
		for _, pr := range peers {
			if pr.Peer == user {
				continue
			}
			other, ok := uploads[pr.Peer]
			if !ok {
				continue
			}
			var reverse int32
			for _, rp := range other {
				if rp.Peer == user {
					reverse = rp.Rank
					break
				}
			}
			if reverse == 0 {
				continue // not mutual
			}
			w := pr.Rank
			if reverse < w {
				w = reverse
			}
			k := key{user, pr.Peer}
			if k.a > k.b {
				k.a, k.b = k.b, k.a
			}
			if old, seen := weights[k]; !seen || w < old {
				weights[k] = w
			}
		}
	}
	edges := make([]graph.Edge, 0, len(weights))
	for k, w := range weights {
		edges = append(edges, graph.Edge{U: k.a, V: k.b, W: w})
	}
	return wpg.FromEdges(n, edges)
}

// BuildGraphIncremental is BuildGraph for the case where only the
// uploads of the users in changed differ from the upload set that
// produced prev. It recomputes the complete row of every changed user
// and rewires prev copy-on-write (wpg.Graph.Rewire): only changed users
// and the vertices whose edge to one of them appeared, disappeared or
// changed weight get new rows, and every other row is shared with prev.
// Mutuality makes the enumeration complete — an edge exists only if
// both endpoints list each other, so a changed user's current list
// names every pair that could have gained, kept, or re-weighted an
// edge, and a pair it dropped loses its edge because the user's row is
// replaced whole. The result is identical to BuildGraph(n, uploads); a
// nil prev or a population mismatch falls back to the full build.
func BuildGraphIncremental(n int, uploads map[int32][]RankedPeer, prev *wpg.Graph, changed map[int32]struct{}) (*wpg.Graph, error) {
	if prev == nil || prev.NumVertices() != n {
		return BuildGraph(n, uploads)
	}
	g, _, err := rewireChanged(uploads, prev, changed)
	return g, err
}

// rewireChanged is BuildGraphIncremental's copy-on-write step. It also
// returns the vertices whose rows changed, which the incremental
// clustering needs to know which components to re-partition. A changed
// user out of prev's range with no mutual pair is skipped, as
// BuildGraph ignores it; one with a mutual pair fails the rewire.
func rewireChanged(uploads map[int32][]RankedPeer, prev *wpg.Graph, changed map[int32]struct{}) (*wpg.Graph, []int32, error) {
	users := make([]int32, 0, len(changed))
	for u := range changed {
		users = append(users, u)
	}
	slices.Sort(users)
	vs := users[:0]
	var rows [][]wpg.Edge
	var buf []wpg.Edge
	for _, u := range users {
		start := len(buf)
		list := uploads[u]
		for _, pr := range list {
			if pr.Peer == u || slices.ContainsFunc(buf[start:], func(e wpg.Edge) bool { return e.To == pr.Peer }) {
				continue
			}
			if w := mutualWeight(u, pr.Peer, list, uploads[pr.Peer]); w > 0 {
				buf = append(buf, wpg.Edge{To: pr.Peer, W: w})
			}
		}
		if (u < 0 || int(u) >= prev.NumVertices()) && len(buf) == start {
			continue
		}
		vs = append(vs, u)
		rows = append(rows, buf[start:len(buf):len(buf)])
	}
	return prev.Rewire(vs, rows)
}

// mutualWeight computes BuildGraph's weight for the unordered pair
// (a,b) from the two users' current lists — the minimum over both
// directions and every duplicate entry of min(entry rank, first reverse
// rank) — or 0 when the pair is not mutual. A user without an upload
// passes a nil list, which BuildGraph treats the same way. Must mirror
// BuildGraph's accumulation exactly; the incremental differential tests
// pin this.
func mutualWeight(a, b int32, al, bl []RankedPeer) int32 {
	var best int32
	direction := func(user, peer int32, ul, pl []RankedPeer) {
		var reverse int32
		for _, rp := range pl {
			if rp.Peer == user {
				reverse = rp.Rank
				break
			}
		}
		if reverse == 0 {
			return
		}
		for _, pr := range ul {
			if pr.Peer != peer {
				continue
			}
			w := pr.Rank
			if reverse < w {
				w = reverse
			}
			if best == 0 || w < best {
				best = w
			}
		}
	}
	direction(a, b, al, bl)
	direction(b, a, bl, al)
	return best
}
