package cluster

import (
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

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
// every upload accepted before the call. With WithFailover, a shard
// that stays unreachable past a deadline is declared dead at the next
// rotation and its users' stored uploads are re-homed onto the
// survivors (recovery is a replay).
type Coordinator struct {
	numUsers    int
	k           int
	every       int
	poolSize    int
	maxBatch    int
	queueCap    int
	spawnShards int
	addrs       []string
	fo          Failover
	dialOpts    []service.DialOption
	cm          *metrics.ClusterMetrics
	rm          *metrics.RequestMetrics

	keys     []uint64
	keyOwner []int32
	pools    []*shardPool
	senders  []*orderedSender
	health   []*shardHealth
	owned    []*Shard // in-process shards spawned via WithShards

	// mu guards the routing state. Rotate holds it across the replay
	// phase so a concurrent upload can never interleave between a
	// member's replay and its tombstone — enqueueing under mu keeps the
	// per-shard queue order identical to the store order.
	mu           sync.RWMutex
	uploads      map[int32][]service.PeerRank
	profiles     map[int32]service.ProfileSpec
	serving      []int32 // current home shard; -1 = never uploaded
	uploadsSince int

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
	lnClose   func() error
	wg        sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // accepted connections; nil once closing
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// WithNumUsers sets the population size (required: routing validates
// user ids against it, and the shards must be configured to match).
func WithNumUsers(n int) Option {
	return func(c *Coordinator) { c.numUsers = n }
}

// WithK sets the anonymity level (default 10, matching service.New).
// Only used to configure shards spawned via WithShards; a coordinator
// over external shards trusts them to agree on k.
func WithK(k int) Option {
	return func(c *Coordinator) { c.k = k }
}

// WithShardAddrs routes to already-running shards at addrs. The shards
// must be cloakd processes (or in-process service.Servers) configured
// with the same population size and k. Mutually exclusive with
// WithShards.
func WithShardAddrs(addrs ...string) Option {
	return func(c *Coordinator) { c.addrs = append([]string(nil), addrs...) }
}

// WithShards spawns n in-process shards owned by the coordinator (and
// closed with it). The cheap mode for tests and single-machine
// experiments; mutually exclusive with WithShardAddrs.
func WithShards(n int) Option {
	return func(c *Coordinator) { c.spawnShards = n }
}

// WithFailover enables shard fail-over: per-shard health tracking,
// retry with exponential backoff + jitter on the ordered connection,
// and — when a shard stays dead past fo.DeadAfter — re-homing its
// users' stored uploads onto the surviving shards at the next rotation.
// The zero Failover disables it (a dead shard then fails its users'
// operations until it returns).
func WithFailover(fo Failover) Option {
	return func(c *Coordinator) { c.fo = fo }
}

// WithMaxBatch caps how many queued forwards one upload_batch round
// trip may carry (default DefaultMaxBatch; hard ceiling keeps a batch
// under the protocol's line limit).
func WithMaxBatch(n int) Option {
	return func(c *Coordinator) { c.maxBatch = n }
}

// WithQueueCapacity sets the per-shard ordered-queue soft capacity:
// Upload blocks (honoring its context) while the owning shard's queue
// is above it (default DefaultQueueCapacity).
func WithQueueCapacity(n int) Option {
	return func(c *Coordinator) { c.queueCap = n }
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

// WithPoolSize sets the query-connection pool size per shard (default
// 4; the ordered upload connection is separate and always single).
func WithPoolSize(n int) Option {
	return func(c *Coordinator) { c.poolSize = n }
}

// WithEveryUploads auto-rotates the cluster after every n accepted
// uploads (0 = manual, the default). The rotation runs asynchronously
// and is skipped while another is in flight, mirroring the single-process
// EveryUploads policy's best-effort cadence.
func WithEveryUploads(n int) Option {
	return func(c *Coordinator) { c.every = n }
}

// WithDialOptions forwards Dial options to every shard connection (op
// timeouts, most usefully).
func WithDialOptions(opts ...service.DialOption) Option {
	return func(c *Coordinator) { c.dialOpts = opts }
}

// New builds a coordinator configured by options. WithNumUsers and
// exactly one of WithShardAddrs / WithShards are required.
func New(opts ...Option) (*Coordinator, error) {
	c := &Coordinator{
		k:        10,
		poolSize: 4,
		maxBatch: DefaultMaxBatch,
		queueCap: DefaultQueueCapacity,
		rm:       metrics.NewRequestMetrics(),
		conns:    make(map[net.Conn]struct{}),
		uploads:  make(map[int32][]service.PeerRank),
		profiles: make(map[int32]service.ProfileSpec),
		cross:    make(map[int32][]int32),
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
	if c.queueCap < 1 {
		return nil, fmt.Errorf("cluster: queue capacity must be >= 1, got %d", c.queueCap)
	}
	if err := c.fo.validate(); err != nil {
		return nil, err
	}
	c.fo = c.fo.withDefaults()
	if len(c.addrs) > 0 && c.spawnShards > 0 {
		return nil, fmt.Errorf("cluster: WithShardAddrs and WithShards are mutually exclusive")
	}
	if len(c.addrs) == 0 && c.spawnShards == 0 {
		return nil, fmt.Errorf("cluster: need at least one shard (WithShardAddrs or WithShards)")
	}
	if c.spawnShards > 0 {
		shards, err := SpawnInProcess(context.Background(), c.spawnShards, ShardConfig{NumUsers: c.numUsers, K: c.k})
		if err != nil {
			return nil, err
		}
		c.owned = shards
		c.addrs = Addrs(shards)
	}
	fail := func(err error) (*Coordinator, error) {
		_ = CloseShards(c.owned)
		return nil, err
	}
	if c.keys == nil {
		// Position-free default: uniform by id.
		c.keys = make([]uint64, c.numUsers)
		for i := range c.keys {
			c.keys[i] = uint64(i)
		}
	}
	if len(c.keys) != c.numUsers {
		return fail(fmt.Errorf("cluster: %d keys for %d users", len(c.keys), c.numUsers))
	}
	c.keyOwner = keyOwners(c.keys, len(c.addrs))
	c.serving = make([]int32, c.numUsers)
	for i := range c.serving {
		c.serving[i] = -1
	}
	c.touched = make([]bool, c.numUsers)
	c.stamp = make([]uint32, c.numUsers)
	c.home = make([]int32, c.numUsers)
	if len(c.dialOpts) == 0 {
		c.dialOpts = []service.DialOption{service.WithOpTimeout(service.DefaultOpTimeout)}
	}
	c.cm.SetShards(len(c.addrs))
	c.pools = make([]*shardPool, len(c.addrs))
	c.health = make([]*shardHealth, len(c.addrs))
	c.senders = make([]*orderedSender, len(c.addrs))
	for i, addr := range c.addrs {
		c.pools[i] = newShardPool(addr, c.poolSize, c.dialOpts)
		c.health[i] = newShardHealth(i, c.cm)
		c.senders[i] = newOrderedSender(i, c.pools[i], c.health[i], c.cm, c.fo, c.maxBatch, c.queueCap)
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
// user's current home shard. Validation is synchronous; delivery is
// asynchronous — the shard applies the upload when its ordered sender
// drains the queue, and Rotate flushes every queue before freezing, so
// a rotation always covers every upload accepted before it. A nil
// return means "accepted and durably stored at the coordinator", not
// "applied by the shard". Blocks (honoring ctx) only when the owning
// shard's queue is over capacity.
func (c *Coordinator) Upload(ctx context.Context, req UploadRequest) error {
	user, peers, prof := req.User, req.Peers, req.Profile
	if err := c.validateUser(user); err != nil {
		return err
	}
	for _, pr := range peers {
		if err := c.validateUser(pr.Peer); err != nil {
			return fmt.Errorf("cluster: peer: %w", err)
		}
		if pr.Rank < 1 {
			return fmt.Errorf("cluster: rank %d for peer %d must be >= 1", pr.Rank, pr.Peer)
		}
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
		go func() {
			if c.rotateMu.TryLock() {
				c.rotateMu.Unlock()
				_, _ = c.Rotate(context.Background())
			}
		}()
	}
	return c.senders[shard].waitCap(ctx)
}

// Flush blocks until every forward enqueued before the call has been
// acknowledged by its shard (dead shards are skipped — their users'
// uploads are replayed at the next rotation). ctx bounds the wait.
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
// its answer. The payload's Epoch is the serving shard's local epoch.
// With failover enabled, a broken connection is retried with backoff
// for up to Failover.QueryBudget — re-resolving the home shard each
// attempt, since a rotation may re-home the user mid-retry.
func (c *Coordinator) Cloak(ctx context.Context, user int32) (*service.CloakPayload, error) {
	if err := c.validateUser(user); err != nil {
		return nil, err
	}
	var deadline time.Time
	if c.fo.enabled() {
		deadline = time.Now().Add(c.fo.QueryBudget)
	}
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
		if !c.fo.enabled() || time.Now().After(deadline) {
			return nil, relayErr(service.OpCloak, err)
		}
		c.cm.ObserveShardRetry(int(shard))
		t := time.NewTimer(backoffFor(c.fo, attempt))
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
// synchronously: on return each live shard serves an epoch covering all
// uploads accepted before the call. One rotation runs at a time;
// concurrent calls serialize.
//
// With failover enabled the rotation is also the recovery point: dead
// shards are probed (a successful ping revives one, and re-homing
// replays its users back), shards failing longer than DeadAfter are
// declared dead (their queues dropped, their users re-homed onto
// survivors from the coordinator's store), and a live shard that fails
// to flush or freeze is marked failing and skipped instead of failing
// the rotation.
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

	c.probeDeadShards()

	now := time.Now()
	c.mu.Lock()
	c.declareDeadLocked(now)
	moves, straddling := c.rehomeLocked()
	// Replays and tombstones flush through the same ordered queues as
	// uploads, while still holding c.mu: a concurrent Upload for a moved
	// user must observe the new home (and order after the replay in the
	// new shard's queue), never race the tombstone.
	failedOver := 0
	var enqErr error
	for _, mv := range moves {
		if mv.from >= 0 && c.health[mv.from].isDead() {
			failedOver++
		}
		if !c.health[mv.to].isDead() {
			c.cm.ObserveRouted(string(service.OpUpload))
			if err := c.senders[mv.to].enqueue(UploadRequest{User: mv.user, Peers: c.uploads[mv.user], Profile: c.profileForLocked(mv.user)}); err != nil && enqErr == nil {
				enqErr = err
			}
		}
		if mv.from >= 0 && !c.health[mv.from].isDead() {
			c.cm.ObserveRouted(string(service.OpUpload))
			if err := c.senders[mv.from].enqueue(UploadRequest{User: mv.user}); err != nil && enqErr == nil {
				enqErr = err
			}
		}
	}
	c.uploadsSince = 0
	c.mu.Unlock()

	c.cm.ObserveBorderReplays(len(moves))
	c.cm.ObserveReroutes(len(moves))
	if enqErr != nil {
		return RotateStats{}, nil, fmt.Errorf("cluster: rotate: %w", enqErr)
	}

	// Flush every live shard's queue in parallel, bounded: a shard that
	// cannot drain in time is marked failing and skipped (failover) or
	// fails the rotation (no failover — the pre-batching behavior).
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
			fctx, cancel := context.WithTimeout(ctx, c.flushTimeout())
			defer cancel()
			ferrs[i] = c.senders[i].flush(fctx)
		}(i)
	}
	wg.Wait()
	for i, err := range ferrs {
		if err == nil || skip[i] {
			continue
		}
		if c.fo.enabled() {
			c.health[i].markFailure()
			skip[i] = true
			continue
		}
		return RotateStats{}, nil, fmt.Errorf("cluster: rotate: flush shard %d: %w", i, err)
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
		if err == nil {
			continue
		}
		if c.fo.enabled() && connBroken(err) {
			c.health[i].markFailure()
			continue
		}
		return RotateStats{}, nil, fmt.Errorf("cluster: rotate shard %d: %w", i, err)
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

// flushTimeout bounds one rotation's wait for a shard queue to drain.
func (c *Coordinator) flushTimeout() time.Duration {
	if c.fo.enabled() {
		return c.fo.FlushTimeout
	}
	return 30 * time.Second
}

// probeDeadShards pings every dead shard once (outside any lock); a
// shard that answers is revived, and the calling rotation re-homes
// components back onto it — replaying their stored uploads, so the
// restarted shard re-enters service consistent with the store.
func (c *Coordinator) probeDeadShards() {
	if !c.fo.enabled() {
		return
	}
	for i := range c.health {
		if !c.health[i].isDead() {
			continue
		}
		if c.pools[i].query(func(cl *service.Client) error { return cl.Ping() }) == nil {
			c.health[i].markRecovered()
		}
	}
}

// declareDeadLocked declares shards failing longer than DeadAfter dead,
// dropping their queues (the re-home replays supersede them). At least
// one shard always stays alive. Callers hold c.mu.
func (c *Coordinator) declareDeadLocked(now time.Time) {
	if !c.fo.enabled() {
		return
	}
	for i := range c.health {
		if c.aliveShards() <= 1 {
			return
		}
		if c.health[i].isDead() || c.health[i].failingFor(now) < c.fo.DeadAfter {
			continue
		}
		c.health[i].declareDead()
		c.senders[i].dropQueue()
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

// Ping checks every live shard.
func (c *Coordinator) Ping(ctx context.Context) error {
	for i := range c.pools {
		if c.health[i].isDead() {
			continue
		}
		c.cm.ObserveRouted(string(service.OpPing))
		if err := c.pools[i].query(func(cl *service.Client) error { return cl.Ping() }); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close shuts the protocol listener and its client connections (if
// serving), the ordered senders, and every shard connection. Shards
// spawned via WithShards are closed too; external shards are their
// owner's to stop.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		if c.lnClose != nil {
			c.closeErr = c.lnClose()
		}
		c.closeConns()
		c.wg.Wait()
		// Pools first: closing the ordered connection unblocks a sender
		// mid-round-trip, then the senders' goroutines exit.
		for _, p := range c.pools {
			p.close()
		}
		for _, s := range c.senders {
			s.close()
		}
		if err := CloseShards(c.owned); err != nil && c.closeErr == nil {
			c.closeErr = err
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
