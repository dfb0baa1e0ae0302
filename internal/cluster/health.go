package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"nonexposure/internal/metrics"
)

// Shard health states, exported through the cloakd_cluster_shard_state
// gauge.
const (
	// ShardUp: the last forward/query on this shard succeeded.
	ShardUp = 0
	// ShardFailing: at least one forward/query hit a broken connection
	// and no success has been seen since; the ordered sender is retrying
	// with backoff.
	ShardFailing = 1
	// ShardDead: the shard stayed failing past DeadAfter and a rotation
	// re-homed its users onto survivors. Only a successful probe at a
	// later rotation revives it.
	ShardDead = 2
)

// DefaultDeadAfter is how long a shard may stay failing before a
// rotation declares it dead and re-homes its users' stored uploads onto
// the surviving shards (WithDeadAfter). It sits below queryBudget, so a
// cloak that keeps retrying against a dead shard outlasts the failure
// window and is answered by the survivor its user was re-homed onto.
const DefaultDeadAfter = 5 * time.Second

const (
	// retryBase and retryMax bound the exponential backoff between
	// attempts, of the ordered sender and of Cloak alike. Each sleep gets
	// up to 50% random jitter, so senders never thundering-herd a
	// recovering shard.
	retryBase = 25 * time.Millisecond
	retryMax  = time.Second
	// minFlushTimeout is the least a rotation waits for one shard's queue
	// to drain before it marks the shard failing and rotates without it;
	// the wait is max(DeadAfter, minFlushTimeout).
	minFlushTimeout = 2 * time.Second
	// queryBudget bounds how long a cloak retries against a failing
	// shard before it gives up.
	queryBudget = 15 * time.Second
)

// shardHealth tracks one shard's liveness as seen by the coordinator.
// The state transitions are driven by forward/query outcomes (up ↔
// failing) and by rotations (failing → dead after DeadAfter, dead → up
// on a successful probe). The hot-path reads (markSuccess on every
// query, isDead on every route) are single atomic loads.
type shardHealth struct {
	shard int
	cm    *metrics.ClusterMetrics

	state atomic.Int32 // ShardUp / ShardFailing / ShardDead

	mu           sync.Mutex
	failingSince time.Time
}

func newShardHealth(shard int, cm *metrics.ClusterMetrics) *shardHealth {
	return &shardHealth{shard: shard, cm: cm}
}

func (h *shardHealth) isDead() bool { return h.state.Load() == ShardDead }

// markFailure records a broken-connection error. The first failure
// after a healthy period starts the DeadAfter clock; a dead shard stays
// dead (only a probe revives it).
func (h *shardHealth) markFailure() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state.Load() == ShardDead {
		return
	}
	if h.failingSince.IsZero() {
		h.failingSince = time.Now()
	}
	h.state.Store(ShardFailing)
	h.cm.SetShardState(h.shard, ShardFailing)
}

// markSuccess clears the failing state. A dead shard is NOT revived
// here: its users were re-homed, so only a rotation (which can re-home
// them back) may flip it via markRecovered.
func (h *shardHealth) markSuccess() {
	if h.state.Load() == ShardUp {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state.Load() == ShardDead {
		return
	}
	h.failingSince = time.Time{}
	h.state.Store(ShardUp)
	h.cm.SetShardState(h.shard, ShardUp)
}

// failingFor reports how long the shard has been failing (0 when up or
// already dead).
func (h *shardHealth) failingFor(now time.Time) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state.Load() != ShardFailing || h.failingSince.IsZero() {
		return 0
	}
	return now.Sub(h.failingSince)
}

// declareDead marks the shard dead. Called under the coordinator's
// routing lock at rotation time, right before its users are re-homed.
func (h *shardHealth) declareDead() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.state.Store(ShardDead)
	h.cm.SetShardState(h.shard, ShardDead)
}

// markRecovered revives a dead shard after a successful probe. The
// calling rotation re-homes components back onto it (replaying their
// stored uploads), so the shard re-enters service consistent.
func (h *shardHealth) markRecovered() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failingSince = time.Time{}
	h.state.Store(ShardUp)
	h.cm.SetShardState(h.shard, ShardUp)
}
