package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ClusterMetrics instruments the coordinator tier: how many shards it
// fronts, how many operations it routed to them (by op), how many users
// it re-homed across shards (border components kept whole, fail-overs),
// and how far each shard's published epoch lags the freshest one.
// All methods are nil-safe so the coordinator hot path never branches on
// "metrics attached?".
type ClusterMetrics struct {
	shards        atomic.Int64
	borderReplays atomic.Uint64
	rotations     atomic.Uint64
	batches       atomic.Uint64
	batchedOps    atomic.Uint64
	failovers     atomic.Uint64

	mu           sync.Mutex
	routed       map[string]uint64
	shardEpochs  []uint64
	shardStates  []int32
	shardRetries []uint64
}

// NewClusterMetrics returns an empty metrics set.
func NewClusterMetrics() *ClusterMetrics {
	return &ClusterMetrics{routed: make(map[string]uint64)}
}

// SetShards records the shard count and sizes the per-shard epoch
// gauges.
func (m *ClusterMetrics) SetShards(n int) {
	if m == nil {
		return
	}
	m.shards.Store(int64(n))
	m.mu.Lock()
	if len(m.shardEpochs) != n {
		m.shardEpochs = make([]uint64, n)
	}
	if len(m.shardStates) != n {
		m.shardStates = make([]int32, n)
	}
	if len(m.shardRetries) != n {
		m.shardRetries = make([]uint64, n)
	}
	m.mu.Unlock()
}

// ObserveBatch counts one ordered upload_batch forward carrying n
// state-changing operations.
func (m *ClusterMetrics) ObserveBatch(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.batches.Add(1)
	m.batchedOps.Add(uint64(n))
}

// ObserveShardRetry counts one retry of shard's ordered connection
// after a broken-connection error.
func (m *ClusterMetrics) ObserveShardRetry(shard int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if shard >= 0 && shard < len(m.shardRetries) {
		m.shardRetries[shard]++
	}
	m.mu.Unlock()
}

// ObserveFailover counts one shard declared dead (its users re-homed
// onto survivors at the declaring rotation).
func (m *ClusterMetrics) ObserveFailover() {
	if m == nil {
		return
	}
	m.failovers.Add(1)
}

// SetShardState records shard's health state (ShardUp/Failing/Dead as
// defined in internal/cluster, exported as a per-shard gauge).
func (m *ClusterMetrics) SetShardState(shard int, state int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if shard >= 0 && shard < len(m.shardStates) {
		m.shardStates[shard] = int32(state)
	}
	m.mu.Unlock()
}

// ObserveRouted counts one operation forwarded to a shard.
func (m *ClusterMetrics) ObserveRouted(op string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.routed[op]++
	m.mu.Unlock()
}

// ObserveBorderReplays counts users re-homed to a different shard at a
// rotation: those whose WPG component straddled a shard boundary and
// those failed over off a dead shard. Each re-home replays the user's
// upload onto its new home.
func (m *ClusterMetrics) ObserveBorderReplays(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.borderReplays.Add(uint64(n))
}

// ObserveRotation counts one completed cluster-wide rotation.
func (m *ClusterMetrics) ObserveRotation() {
	if m == nil {
		return
	}
	m.rotations.Add(1)
}

// SetShardEpoch records shard's most recently observed published epoch.
func (m *ClusterMetrics) SetShardEpoch(shard int, epoch uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if shard >= 0 && shard < len(m.shardEpochs) {
		m.shardEpochs[shard] = epoch
	}
	m.mu.Unlock()
}

// RoutedOp is one per-operation routed counter.
type RoutedOp struct {
	Op    string
	Count uint64
}

// ClusterSnapshot is a point-in-time copy of the coordinator metrics.
// EpochLag[i] is the distance from shard i's last observed epoch to the
// freshest shard's — a shard that skipped rotations (no new uploads)
// shows a growing lag until traffic returns to it.
type ClusterSnapshot struct {
	Shards        int
	Routed        []RoutedOp
	RoutedTotal   uint64
	BorderReplays uint64
	Rotations     uint64
	ShardEpochs   []uint64
	EpochLag      []uint64
	// Batches/BatchedOps count ordered upload_batch forwards and the
	// operations they carried (BatchedOps/Batches = mean batch size).
	Batches    uint64
	BatchedOps uint64
	// ShardStates[i] is shard i's health (0 up, 1 failing, 2 dead);
	// ShardRetries[i] counts its ordered-connection retries. Failovers
	// counts shards declared dead over the coordinator's lifetime.
	ShardStates  []int32
	ShardRetries []uint64
	Failovers    uint64
}

// Snapshot copies the current counters. Routed is sorted by op name for
// deterministic rendering.
func (m *ClusterMetrics) Snapshot() ClusterSnapshot {
	if m == nil {
		return ClusterSnapshot{}
	}
	snap := ClusterSnapshot{
		Shards:        int(m.shards.Load()),
		BorderReplays: m.borderReplays.Load(),
		Rotations:     m.rotations.Load(),
		Batches:       m.batches.Load(),
		BatchedOps:    m.batchedOps.Load(),
		Failovers:     m.failovers.Load(),
	}
	m.mu.Lock()
	for op, n := range m.routed {
		snap.Routed = append(snap.Routed, RoutedOp{Op: op, Count: n})
		snap.RoutedTotal += n
	}
	snap.ShardEpochs = append([]uint64(nil), m.shardEpochs...)
	snap.ShardStates = append([]int32(nil), m.shardStates...)
	snap.ShardRetries = append([]uint64(nil), m.shardRetries...)
	m.mu.Unlock()
	sort.Slice(snap.Routed, func(i, j int) bool { return snap.Routed[i].Op < snap.Routed[j].Op })
	var max uint64
	for _, e := range snap.ShardEpochs {
		if e > max {
			max = e
		}
	}
	snap.EpochLag = make([]uint64, len(snap.ShardEpochs))
	for i, e := range snap.ShardEpochs {
		snap.EpochLag[i] = max - e
	}
	return snap
}

// String renders a one-line operator summary.
func (s ClusterSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shards=%d routed=%d border_replays=%d rotations=%d batches=%d failovers=%d",
		s.Shards, s.RoutedTotal, s.BorderReplays, s.Rotations, s.Batches, s.Failovers)
	if len(s.ShardEpochs) > 0 {
		b.WriteString(" epochs=[")
		for i, e := range s.ShardEpochs {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", e)
		}
		b.WriteByte(']')
	}
	return b.String()
}
