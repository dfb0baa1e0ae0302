package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// Coordinator fronts N cloakd shards behind the single-process protocol:
// clients upload rankings and request cloaks exactly as against one
// cloakd, and the coordinator routes each operation to the shard that
// owns the user.
//
// Ownership has two layers. The static layer is the Hilbert key
// partition: every user has a key-owner shard from cutting the (key, id)
// order into population-balanced runs, and fresh uploads land there —
// locality-preserving, so most proximity edges stay shard-local. The
// dynamic layer repairs the edges that don't: at every Rotate the
// coordinator homes each WPG connected component over the stored
// uploads (mutual-edge rule, Def. 3.2) on the key-owner shard of its
// minimum-(key, id) member, walking only the components that straddle
// a key-owner boundary (see rehomeLocked). Members stored elsewhere are
// replayed to the home shard and tombstoned (empty peer list) at their
// former one. Theorem 4.4 — clustering never crosses a
// component boundary — then gives exact equivalence: every shard sees
// each of its homed components in full, so per-shard clustering produces
// bit-identical clusters to a single process, and no border user is ever
// dropped or served a sub-k cluster.
//
// State-changing forwards are batched and pipelined: Upload appends to
// the owning shard's ordered queue under a short critical section and
// returns; a per-shard sender goroutine drains the queue in coordinator
// order over the shard's dedicated ordered connection using the v1
// upload_batch op. The coordinator's own store — which holds every
// upload and profile anyway, for re-homing — is the source of truth;
// Rotate flushes the queues before freezing, so a rotation still covers
// every upload accepted before the call. A shard that stays unreachable
// past DeadAfter is declared dead at the next rotation and its users'
// stored uploads are re-homed onto the survivors (recovery is a
// replay); see "Failure semantics and shard fail-over" in DESIGN.md.
type Coordinator struct {
	numUsers  int
	k         int
	every     int
	maxBatch  int
	deadAfter time.Duration
	addrs     []string
	cm        *metrics.ClusterMetrics
	rm        *metrics.RequestMetrics

	keys     []uint64
	keyOwner []int32
	pools    []*shardPool
	senders  []*orderedSender
	health   []*shardHealth

	// mu guards the routing state. Rotate holds it across the replay
	// phase so a concurrent upload can never interleave between a
	// member's replay and its tombstone — enqueueing under mu keeps the
	// per-shard queue order identical to the store order.
	mu           sync.RWMutex
	uploads      map[int32][]service.PeerRank
	profiles     map[int32]service.ProfileSpec
	serving      []int32 // current home shard; -1 = never uploaded
	uploadsSince int
	// held lists, per dead shard, the users whose rows it may still
	// hold: those it served and those in its dropped queue when it was
	// declared dead. A partitioned shard keeps its state, so the rotation
	// that revives it tombstones each of them there unless it re-homes
	// them back.
	held [][]int32

	// Rehome state, under mu (see rehomeLocked). touched flags the users
	// uploaded since the last rehome, touchedList lists them. cross
	// holds the cross edges (mutual edges whose endpoints have different
	// key owners) as incidence lists of the boundary users only. stamp,
	// home and walk are the component walk's reused scratch: a user
	// whose stamp equals stampGen was walked by the last rehome, and
	// home is then its component's home shard.
	touched     []bool
	touchedList []int32
	cross       map[int32][]int32
	stamp       []uint32
	stampGen    uint32
	home        []int32
	walk        []int32

	rotateMu sync.Mutex
	epoch    uint64 // completed cluster rotations, under rotateMu

	closeOnce sync.Once
	closeErr  error
	acc       *service.Acceptor // the protocol listener; nil unless Listen ran
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// WithNumUsers sets the population size (required: routing validates
// user ids against it, and the shards must be configured to match).
func WithNumUsers(n int) Option {
	return func(c *Coordinator) { c.numUsers = n }
}

// WithK sets the anonymity level (default 10, matching service.New).
// The coordinator does not cluster: it checks k >= 1 and trusts its
// shards to run with the same k.
func WithK(k int) Option {
	return func(c *Coordinator) { c.k = k }
}

// WithShardAddrs routes to already-running shards at addrs (required).
// The shards must be cloakd processes (or in-process service.Servers,
// see SpawnInProcess) configured with the same population size and k;
// they are their owner's to stop.
func WithShardAddrs(addrs ...string) Option {
	return func(c *Coordinator) { c.addrs = append([]string(nil), addrs...) }
}

// WithDeadAfter sets how long a shard may stay failing before a
// rotation declares it dead and re-homes its users' stored uploads onto
// the surviving shards (default DefaultDeadAfter; must be > 0).
func WithDeadAfter(d time.Duration) Option {
	return func(c *Coordinator) { c.deadAfter = d }
}

// WithMaxBatch caps how many queued forwards one upload_batch round
// trip may carry (default DefaultMaxBatch; hard ceiling keeps a batch
// under the protocol's line limit).
func WithMaxBatch(n int) Option {
	return func(c *Coordinator) { c.maxBatch = n }
}

// WithKeys supplies per-user locality keys (Hilbert ranks from
// HilbertKeys). len(keys) must equal the population size. Without keys
// the coordinator falls back to a uniform split by user id — correct,
// but every proximity edge is then a coin flip away from crossing a
// shard boundary.
func WithKeys(keys []uint64) Option {
	return func(c *Coordinator) { c.keys = keys }
}

// WithClusterMetrics attaches coordinator metrics (nil is fine).
func WithClusterMetrics(cm *metrics.ClusterMetrics) Option {
	return func(c *Coordinator) { c.cm = cm }
}

// WithEveryUploads auto-rotates the cluster after every n accepted
// uploads (0 = manual, the default). The rotation runs asynchronously
// and is skipped while another is in flight, mirroring the single-process
// EveryUploads policy's best-effort cadence. A writer parked behind a
// shard that has been failing for DeadAfter starts one too, once every
// DeadAfter while it waits, so that shard is declared dead.
func WithEveryUploads(n int) Option {
	return func(c *Coordinator) { c.every = n }
}

// New builds a coordinator configured by options. WithNumUsers and
// WithShardAddrs are required.
func New(opts ...Option) (*Coordinator, error) {
	c := &Coordinator{
		k:         10,
		maxBatch:  DefaultMaxBatch,
		deadAfter: DefaultDeadAfter,
		rm:        metrics.NewRequestMetrics(),
		uploads:   make(map[int32][]service.PeerRank),
		profiles:  make(map[int32]service.ProfileSpec),
		cross:     make(map[int32][]int32),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.numUsers <= 0 {
		return nil, fmt.Errorf("cluster: population must be positive, got %d (WithNumUsers is required)", c.numUsers)
	}
	if c.k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", c.k)
	}
	if c.every < 0 {
		return nil, fmt.Errorf("cluster: EveryUploads must be >= 0, got %d", c.every)
	}
	if c.maxBatch < 1 {
		return nil, fmt.Errorf("cluster: max batch must be >= 1, got %d", c.maxBatch)
	}
	if c.maxBatch > maxBatchCeiling {
		c.maxBatch = maxBatchCeiling
	}
	if c.deadAfter <= 0 {
		return nil, fmt.Errorf("cluster: dead-after must be > 0, got %v", c.deadAfter)
	}
	if len(c.addrs) == 0 {
		return nil, fmt.Errorf("cluster: need at least one shard (WithShardAddrs)")
	}
	if c.keys == nil {
		// Position-free default: uniform by id.
		c.keys = make([]uint64, c.numUsers)
		for i := range c.keys {
			c.keys[i] = uint64(i)
		}
	}
	if len(c.keys) != c.numUsers {
		return nil, fmt.Errorf("cluster: %d keys for %d users", len(c.keys), c.numUsers)
	}
	c.keyOwner = keyOwners(c.keys, len(c.addrs))
	c.serving = make([]int32, c.numUsers)
	for i := range c.serving {
		c.serving[i] = -1
	}
	c.touched = make([]bool, c.numUsers)
	c.stamp = make([]uint32, c.numUsers)
	c.home = make([]int32, c.numUsers)
	c.held = make([][]int32, len(c.addrs))
	c.cm.SetShards(len(c.addrs))
	c.pools = make([]*shardPool, len(c.addrs))
	c.health = make([]*shardHealth, len(c.addrs))
	c.senders = make([]*orderedSender, len(c.addrs))
	for i, addr := range c.addrs {
		c.pools[i] = newShardPool(addr)
		c.health[i] = newShardHealth(i, c.cm)
		c.senders[i] = newOrderedSender(i, c.pools[i], c.health[i], c.cm, c.maxBatch)
	}
	return c, nil
}

// Shards returns the number of shards.
func (c *Coordinator) Shards() int { return len(c.pools) }

// Metrics returns the coordinator's own request metrics (its front-end
// op accounting, separate from any shard's).
func (c *Coordinator) Metrics() *metrics.RequestMetrics { return c.rm }

// ClusterMetrics returns the attached cluster metrics snapshot source
// (nil unless WithClusterMetrics was given).
func (c *Coordinator) ClusterMetrics() *metrics.ClusterMetrics { return c.cm }

func (c *Coordinator) validateUser(user int32) error {
	if user < 0 || int(user) >= c.numUsers {
		return fmt.Errorf("cluster: user %d outside population [0,%d)", user, c.numUsers)
	}
	return nil
}

// shardForLocked returns the shard currently answering for user: the
// component home if the user has uploaded, the static key owner (or its
// alive stand-in) otherwise.
func (c *Coordinator) shardForLocked(user int32) int32 {
	if s := c.serving[user]; s >= 0 {
		return s
	}
	return c.aliveOwnerLocked(user)
}

// aliveOwnerLocked is the user's static key-owner shard, or — when that
// shard is dead — the next alive shard in ring order. Deterministic, so
// routing and re-homing always agree on the stand-in.
func (c *Coordinator) aliveOwnerLocked(user int32) int32 {
	return c.standInLocked(c.keyOwner[user])
}

// standInLocked is shard o if it is alive, else the next alive shard in
// ring order.
func (c *Coordinator) standInLocked(o int32) int32 {
	n := int32(len(c.pools))
	for d := int32(0); d < n; d++ {
		cand := (o + d) % n
		if !c.health[cand].isDead() {
			return cand
		}
	}
	return o
}

// UploadRequest carries one proximity upload through the routing layer.
// It is the wire's upload entry, so an upload_batch entry passes through
// unchanged and the ordered queues forward it as is. Peers may be empty
// (the user then forms no edges) and Profile follows the sticky wire
// semantics: nil keeps any stored profile, an explicit zero spec reverts
// to the defaults.
type UploadRequest = service.UploadEntry

// Upload stores the user's ranked peer list and enqueues it for the
// user's current home shard. Validation is synchronous and is the
// shard's own check (epoch.UploadRequest.Validate), so the shard never
// rejects a stored upload; delivery is asynchronous — the shard
// applies the upload when its ordered sender drains the queue, and
// Rotate flushes every queue before freezing, so a rotation always
// covers every upload accepted before it. A nil return means
// "accepted and stored in the coordinator's memory", not "applied by
// the shard". Blocks (honoring ctx) only when the owning shard's queue
// is over capacity.
func (c *Coordinator) Upload(ctx context.Context, req UploadRequest) error {
	user, peers, prof := req.User, req.Peers, req.Profile
	if err := (epoch.UploadRequest{User: user, Peers: peers, Profile: prof.Core()}).Validate(c.numUsers); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	stored := append([]service.PeerRank(nil), peers...)
	var storedProf *service.ProfileSpec
	if prof != nil {
		v := *prof
		storedProf = &v
	}

	c.mu.Lock()
	c.uploads[user] = stored
	if storedProf != nil {
		c.profiles[user] = *storedProf
	}
	if c.serving[user] < 0 {
		c.serving[user] = c.aliveOwnerLocked(user)
	}
	if !c.touched[user] {
		c.touched[user] = true
		c.touchedList = append(c.touchedList, user)
	}
	shard := c.serving[user]
	c.uploadsSince++
	autoRotate := c.every > 0 && c.uploadsSince >= c.every
	if autoRotate {
		c.uploadsSince = 0
	}
	c.cm.ObserveRouted(string(service.OpUpload))
	err := c.senders[shard].enqueue(UploadRequest{User: user, Peers: stored, Profile: storedProf})
	c.mu.Unlock()
	if err != nil {
		return err
	}

	if autoRotate {
		c.rotateAsync()
	}
	// Only a rotation declares a shard dead, and an auto-rotating
	// coordinator rotates only on uploads, which a parked writer no
	// longer makes: while it waits behind a shard failing for DeadAfter,
	// it starts the rotation that re-homes it.
	var parked func()
	if c.every > 0 {
		parked = func() {
			if c.health[shard].failingFor(time.Now()) >= c.deadAfter {
				c.rotateAsync()
			}
		}
	}
	return c.senders[shard].waitCap(ctx, c.deadAfter, parked)
}

// rotateAsync starts a rotation in the background unless one is
// already in flight.
func (c *Coordinator) rotateAsync() {
	go func() {
		if c.rotateMu.TryLock() {
			c.rotateMu.Unlock()
			_, _ = c.Rotate(context.Background())
		}
	}()
}

// Flush blocks until every forward enqueued before the call has been
// acknowledged by its shard, or dropped because a rotation declared
// its shard dead (dead shards are skipped — their users' uploads are
// replayed onto survivors). ctx bounds the wait. The only error it
// returns besides ctx's is a shard's rejection of an upload.
func (c *Coordinator) Flush(ctx context.Context) error {
	var first error
	for i := range c.senders {
		if c.health[i].isDead() {
			continue
		}
		if err := c.senders[i].flush(ctx); err != nil && first == nil {
			first = fmt.Errorf("cluster: flush shard %d: %w", i, err)
		}
	}
	return first
}

// Cloak routes the cloaking request to the user's home shard and relays
// its answer. The payload's Epoch is the serving shard's local epoch. A
// broken connection is retried with backoff for up to queryBudget from
// the first failure — re-resolving the home shard each attempt, since
// a rotation may re-home the user mid-retry.
func (c *Coordinator) Cloak(ctx context.Context, user int32) (*service.CloakPayload, error) {
	if err := c.validateUser(user); err != nil {
		return nil, err
	}
	var deadline time.Time // set at the first failure
	for attempt := 1; ; attempt++ {
		c.mu.RLock()
		shard := c.shardForLocked(user)
		c.mu.RUnlock()
		c.cm.ObserveRouted(string(service.OpCloak))
		var payload *service.CloakPayload
		err := c.pools[shard].query(func(cl *service.Client) error {
			p, err := cl.CloakV1(user)
			payload = p
			return err
		})
		if err == nil {
			c.health[shard].markSuccess()
			return payload, nil
		}
		if !connBroken(err) {
			// The shard answered; this is the real response.
			return nil, relayErr(service.OpCloak, err)
		}
		c.health[shard].markFailure()
		if deadline.IsZero() {
			deadline = time.Now().Add(queryBudget)
		} else if time.Now().After(deadline) {
			return nil, relayErr(service.OpCloak, err)
		}
		c.cm.ObserveShardRetry(int(shard))
		t := time.NewTimer(backoffFor(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// RotateStats summarizes one cluster-wide rotation.
type RotateStats struct {
	Epoch      uint64 // completed cluster rotations
	Straddling int    // users in WPG components spanning two or more key owners
	Moves      int    // users re-homed (border replays sent)
	Edges      int    // mutual edges served by the shards that answered the freeze
	FailedOver int    // users re-homed off shards declared dead
	DeadShards int    // shards currently dead
}

// Rotate re-homes components and rotates every live shard,
// synchronously: on return each live shard it did not skip serves an
// epoch covering all uploads accepted before the call. One rotation
// runs at a time; concurrent calls serialize.
//
// The rotation is also the recovery point. Dead shards are probed: one
// that answers is revived, re-homing replays its components back onto
// it, and every user it may still hold a row for that does not home
// there is tombstoned there. Shards failing for DeadAfter are declared
// dead: their queues are dropped and their users re-homed onto
// survivors from the coordinator's store. A live shard whose flush
// outlasts max(DeadAfter, 2s), or whose freeze connection breaks, is
// marked failing and skipped. A shard's rejection, of a forwarded
// upload or of the freeze, fails the rotation.
func (c *Coordinator) Rotate(ctx context.Context) (RotateStats, error) {
	st, _, err := c.rotate(ctx)
	return st, err
}

// rotate is Rotate, also returning the shards' freeze replies: each
// one's epoch payload once its freeze published (nil for a shard that
// was dead or skipped).
func (c *Coordinator) rotate(ctx context.Context) (RotateStats, []*service.EpochPayload, error) {
	c.rotateMu.Lock()
	defer c.rotateMu.Unlock()

	revived := c.probeDeadShards()

	now := time.Now()
	c.mu.Lock()
	c.declareDeadLocked(now)
	moves, straddling := c.rehomeLocked()
	// Replays and tombstones flush through the same ordered queues as
	// uploads, while still holding c.mu: a concurrent Upload for a moved
	// user must observe the new home (and order after the replay in the
	// new shard's queue), never race the tombstone.
	var enqErr error
	enqueue := func(shard int32, req UploadRequest) {
		c.cm.ObserveRouted(string(service.OpUpload))
		if err := c.senders[shard].enqueue(req); err != nil && enqErr == nil {
			enqErr = err
		}
	}
	failedOver := 0
	for _, mv := range moves {
		if mv.from >= 0 && c.health[mv.from].isDead() {
			failedOver++
		}
		if !c.health[mv.to].isDead() {
			enqueue(mv.to, UploadRequest{User: mv.user, Peers: c.uploads[mv.user], Profile: c.profileForLocked(mv.user)})
		}
		if mv.from >= 0 && !c.health[mv.from].isDead() {
			enqueue(mv.from, UploadRequest{User: mv.user})
		}
	}
	for _, i := range revived {
		slices.Sort(c.held[i])
		for _, u := range slices.Compact(c.held[i]) {
			if c.serving[u] != i {
				enqueue(i, UploadRequest{User: u})
			}
		}
		c.held[i] = nil
	}
	c.uploadsSince = 0
	c.mu.Unlock()

	c.cm.ObserveBorderReplays(len(moves))
	if enqErr != nil {
		return RotateStats{}, nil, fmt.Errorf("cluster: rotate: %w", enqErr)
	}

	// Flush every live shard's queue in parallel, bounded: a shard that
	// cannot drain in time is marked failing and skipped.
	skip := make([]bool, len(c.pools))
	ferrs := make([]error, len(c.pools))
	var wg sync.WaitGroup
	for i := range c.senders {
		if c.health[i].isDead() {
			skip[i] = true
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, max(c.deadAfter, minFlushTimeout))
			defer cancel()
			ferrs[i] = c.senders[i].flush(fctx)
		}(i)
	}
	wg.Wait()
	for i, err := range ferrs {
		switch {
		case err == nil:
		case ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded):
			c.health[i].markFailure()
			skip[i] = true
		default:
			return RotateStats{}, nil, fmt.Errorf("cluster: rotate: flush shard %d: %w", i, err)
		}
	}

	// Freeze the surviving shards in parallel. Each reply is the epoch
	// payload the shard serves once its freeze published. A shard whose
	// input didn't change builds nothing and answers with the epoch it
	// already serves, which covers the same uploads, flagged unchanged.
	shards := make([]*service.EpochPayload, len(c.pools))
	errs := make([]error, len(c.pools))
	for i := range c.pools {
		if skip[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.cm.ObserveRouted(string(service.OpFreeze))
			errs[i] = c.pools[i].query(func(cl *service.Client) error {
				var err error
				shards[i], err = cl.Freeze()
				return err
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		switch {
		case err == nil:
		case connBroken(err):
			c.health[i].markFailure()
		default:
			return RotateStats{}, nil, fmt.Errorf("cluster: rotate shard %d: %w", i, err)
		}
	}

	c.epoch++
	c.cm.ObserveRotation()
	stats := RotateStats{Epoch: c.epoch, Straddling: straddling, Moves: len(moves), FailedOver: failedOver}
	for i := range c.health {
		if c.health[i].isDead() {
			stats.DeadShards++
		}
	}
	for i, p := range shards {
		if p != nil {
			c.cm.SetShardEpoch(i, p.Epoch)
			stats.Edges += p.Edges
		}
	}
	return stats, shards, nil
}

// probeDeadShards pings every dead shard once (outside any lock),
// revives each that answers and returns them. The calling rotation
// re-homes components back onto a revived shard, replaying their stored
// uploads, and tombstones there every user in its held list that stays
// elsewhere, so the shard re-enters service consistent with the store
// whether it restarted empty or was only cut off.
func (c *Coordinator) probeDeadShards() []int32 {
	var revived []int32
	for i := range c.health {
		if !c.health[i].isDead() {
			continue
		}
		if c.pools[i].query(func(cl *service.Client) error { return cl.Ping() }) == nil {
			c.health[i].markRecovered()
			revived = append(revived, int32(i))
		}
	}
	return revived
}

// declareDeadLocked declares shards failing for DeadAfter dead. It
// drops each one's queue (the re-home replays supersede it) and records
// in held the users whose rows the shard may keep: those in the dropped
// queue, the batch in flight included, and those it serves. At least
// one shard always stays alive. Callers hold c.mu.
func (c *Coordinator) declareDeadLocked(now time.Time) {
	for i := range c.health {
		if c.aliveShards() <= 1 {
			return
		}
		if c.health[i].isDead() || c.health[i].failingFor(now) < c.deadAfter {
			continue
		}
		for _, e := range c.senders[i].dropQueue() {
			c.held[i] = append(c.held[i], e.User)
		}
		for u, s := range c.serving {
			if s == int32(i) {
				c.held[i] = append(c.held[i], int32(u))
			}
		}
		c.health[i].declareDead()
		c.cm.ObserveFailover()
	}
}

// aliveShards counts shards not currently declared dead.
func (c *Coordinator) aliveShards() int {
	n := 0
	for i := range c.health {
		if !c.health[i].isDead() {
			n++
		}
	}
	return n
}

// profileForLocked returns the stored profile spec for replays (nil if
// the user never sent one — the home shard then applies defaults, which
// is also what a fresh shard would do).
func (c *Coordinator) profileForLocked(user int32) *service.ProfileSpec {
	if p, ok := c.profiles[user]; ok {
		return &p
	}
	return nil
}

type move struct {
	user     int32
	from, to int32
}

// rehomeLocked re-homes every uploaded user onto its WPG component's
// home shard. Components are formed by the mutual-edge rule: an edge
// (u,v) exists iff u ranks v and v ranks u. The home is the key-owner
// shard of the component's minimum-(key, id) member — deterministic,
// and biased toward where most of the component's uploads already live
// when keys are locality-preserving. Dead shards are never homes: their
// components land on the next alive shard in ring order.
//
// Only a straddling component — one holding a cross edge, a mutual edge
// between users with different key owners — can home a member anywhere
// but its own alive owner: in any other component every member, the
// minimum included, has the same key owner. So instead of partitioning
// every stored upload, the rehome re-derives the cross edges of the
// users touched since the last call, walks the components those edges
// reach, and gives every other uploaded user its alive owner. Returns
// the users that moved, in user order, and the number of users in
// straddling components.
func (c *Coordinator) rehomeLocked() ([]move, int) {
	c.updateCrossLocked()
	alive := make([]int32, len(c.pools)) // alive stand-in per key owner
	for o := range alive {
		alive[o] = c.standInLocked(int32(o))
	}
	straddling := c.walkStraddlingLocked(alive)

	var moves []move
	for u, from := range c.serving {
		if from < 0 {
			continue // never uploaded
		}
		to := alive[c.keyOwner[u]]
		if c.stamp[u] == c.stampGen {
			to = c.home[u]
		}
		if from != to {
			moves = append(moves, move{user: int32(u), from: from, to: to})
			c.serving[u] = to
		}
	}
	return moves, straddling
}

// updateCrossLocked brings the cross edges up to date with the touched
// users' stored uploads and clears the touched set. An edge's existence
// depends only on its endpoints' lists, so dropping every touched
// user's edges and re-deriving them from its list is exact.
func (c *Coordinator) updateCrossLocked() {
	for _, u := range c.touchedList {
		for _, v := range c.cross[u] {
			l := c.cross[v]
			i := slices.Index(l, u)
			l[i] = l[len(l)-1]
			if l = l[:len(l)-1]; len(l) == 0 {
				delete(c.cross, v)
			} else {
				c.cross[v] = l
			}
		}
		delete(c.cross, u)
	}
	for _, u := range c.touchedList {
		for _, pr := range c.uploads[u] {
			v := pr.Peer
			if c.keyOwner[v] == c.keyOwner[u] || slices.Contains(c.cross[u], v) || !c.ranksLocked(v, u) {
				continue // not a cross edge (v == u included), derived already, or not mutual
			}
			c.cross[u] = append(c.cross[u], v)
			c.cross[v] = append(c.cross[v], u)
		}
		c.touched[u] = false
	}
	c.touchedList = c.touchedList[:0]
}

// walkStraddlingLocked walks every component that holds a cross edge
// breadth-first from its boundary users, stamps its members with a new
// stamp generation and sets their home to the alive stand-in of the
// component minimum's key owner. Returns the number of users walked.
func (c *Coordinator) walkStraddlingLocked(alive []int32) int {
	c.stampGen++
	if c.stampGen == 0 {
		// Wrapped: a stamp left from 2^32 walks ago would alias.
		clear(c.stamp)
		c.stampGen = 1
	}
	gen := c.stampGen
	walked := 0
	for b := range c.cross {
		if c.stamp[b] == gen {
			continue
		}
		c.stamp[b] = gen
		comp := append(c.walk[:0], b)
		low := b
		for i := 0; i < len(comp); i++ {
			x := comp[i]
			for _, pr := range c.uploads[x] {
				v := pr.Peer
				if c.stamp[v] == gen || !c.ranksLocked(v, x) {
					continue // walked already (v == x included), or not mutual
				}
				c.stamp[v] = gen
				comp = append(comp, v)
				if c.keys[v] < c.keys[low] || (c.keys[v] == c.keys[low] && v < low) {
					low = v
				}
			}
		}
		home := alive[c.keyOwner[low]]
		for _, x := range comp {
			c.home[x] = home
		}
		walked += len(comp)
		c.walk = comp
	}
	return walked
}

// ranksLocked reports whether u's stored upload ranks v.
func (c *Coordinator) ranksLocked(u, v int32) bool {
	for _, pr := range c.uploads[u] {
		if pr.Peer == v {
			return true
		}
	}
	return false
}

// EpochStatus aggregates the live shards' pipeline states into one
// payload (see epochPayload).
func (c *Coordinator) EpochStatus(ctx context.Context) (*service.EpochPayload, error) {
	shards := make([]*service.EpochPayload, len(c.pools))
	for i := range c.pools {
		if c.health[i].isDead() {
			continue
		}
		c.cm.ObserveRouted(string(service.OpEpoch))
		err := c.pools[i].query(func(cl *service.Client) error {
			var err error
			shards[i], err = cl.EpochStatus()
			return err
		})
		if err != nil {
			return nil, relayErr(service.OpEpoch, err)
		}
		c.cm.SetShardEpoch(i, shards[i].Epoch)
	}
	c.rotateMu.Lock()
	epoch := c.epoch
	c.rotateMu.Unlock()
	return c.epochPayload(epoch, shards), nil
}

// epochPayload folds the shards' epoch payloads (nil entries skipped)
// into the coordinator's: Epoch is the coordinator's rotation count,
// SinceTrigger its uploads since the last rotation, Published requires
// every shard to have published, the counters are sums, and KMax and
// LastBuildUs are maxima.
func (c *Coordinator) epochPayload(epoch uint64, shards []*service.EpochPayload) *service.EpochPayload {
	agg := &service.EpochPayload{Epoch: epoch, Published: true, Policy: c.policyString()}
	for _, p := range shards {
		if p == nil {
			continue
		}
		agg.Published = agg.Published && p.Published
		agg.Pending += p.Pending
		agg.Builds += p.Builds
		agg.Swaps += p.Swaps
		agg.UploadsSeen += p.UploadsSeen
		agg.Changed += p.Changed
		agg.Edges += p.Edges
		agg.Clusters += p.Clusters
		agg.Skipped += p.Skipped
		agg.ShardsRebuilt += p.ShardsRebuilt
		agg.ShardsTotal += p.ShardsTotal
		agg.Profiled += p.Profiled
		agg.Degraded += p.Degraded
		agg.KMax = max(agg.KMax, p.KMax)
		agg.LastBuildUs = max(agg.LastBuildUs, p.LastBuildUs)
	}
	c.mu.RLock()
	agg.SinceTrigger = c.uploadsSince
	c.mu.RUnlock()
	return agg
}

// rotateEpoch rotates and answers with the aggregated epoch status,
// built from the shards' freeze replies. It queries the shards again
// only when a live shard was skipped.
func (c *Coordinator) rotateEpoch(ctx context.Context) (*service.EpochPayload, error) {
	st, shards, err := c.rotate(ctx)
	if err != nil {
		return nil, err
	}
	for i, p := range shards {
		if p == nil && !c.health[i].isDead() {
			return c.EpochStatus(ctx)
		}
	}
	return c.epochPayload(st.Epoch, shards), nil
}

// Stats aggregates live-shard stats plus the coordinator's own request
// accounting into the v1 stats shape.
func (c *Coordinator) Stats(ctx context.Context) (*service.StatsPayload, error) {
	p := &service.StatsPayload{Users: c.numUsers, Frozen: true}
	for i := range c.pools {
		if c.health[i].isDead() {
			continue
		}
		c.cm.ObserveRouted(string(service.OpStats))
		var sp *service.StatsPayload
		err := c.pools[i].query(func(cl *service.Client) error {
			var err error
			sp, err = cl.StatsV1()
			return err
		})
		if err != nil {
			return nil, relayErr(service.OpStats, err)
		}
		p.Frozen = p.Frozen && sp.Frozen
		p.Clusters += sp.Clusters
		p.Edges += sp.Edges
		p.Profiled += sp.Profiled
	}
	c.mu.RLock()
	p.Uploads = len(c.uploads)
	c.mu.RUnlock()
	c.rotateMu.Lock()
	p.Epoch = c.epoch
	c.rotateMu.Unlock()
	snap := c.rm.Snapshot()
	p.Requests = snap.Total
	p.ReqErrors = snap.Errors
	p.LatP50us = float64(snap.P50) / float64(time.Microsecond)
	p.LatP95us = float64(snap.P95) / float64(time.Microsecond)
	p.LatP99us = float64(snap.P99) / float64(time.Microsecond)
	if len(snap.Ops) > 0 {
		p.OpCounts = make(map[string]uint64, len(snap.Ops))
		for _, op := range snap.Ops {
			p.OpCounts[op.Op] = op.Count
		}
	}
	return p, nil
}

func (c *Coordinator) policyString() string {
	if c.every > 0 {
		return fmt.Sprintf("coordinator|uploads>=%d", c.every)
	}
	return "coordinator|manual"
}

// Close shuts the protocol listener and its client connections (if
// serving), the ordered senders, and every shard connection. The
// shards themselves are their owner's to stop.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		if c.acc != nil {
			c.closeErr = c.acc.Close()
		}
		// Pools first: closing the ordered connection unblocks a sender
		// mid-round-trip, then the senders' goroutines exit.
		for _, p := range c.pools {
			p.close()
		}
		for _, s := range c.senders {
			s.close()
		}
	})
	return c.closeErr
}

// relayErr strips the client-side "service: <op>: " prefix so the
// coordinator relays the shard's own message instead of double-wrapping
// it.
func relayErr(op service.Op, err error) error {
	msg := strings.TrimPrefix(err.Error(), fmt.Sprintf("service: %s: ", op))
	return fmt.Errorf("%s", msg)
}
