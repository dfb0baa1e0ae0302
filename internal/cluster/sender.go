package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// Default sizing for the per-shard ordered queues. A batch of 128
// uploads is ~30 KiB on the wire — far under MaxLineBytes — and the
// queue capacity only backpressures writers, it never drops.
const (
	DefaultMaxBatch      = 128
	DefaultQueueCapacity = 8192
	// maxBatchCeiling keeps any configured batch size comfortably under
	// the protocol's one-line limit.
	maxBatchCeiling = 1024
)

// orderedSender drains one shard's ordered queue of state-changing
// forwards: uploads, border replays (same shape), and tombstones (empty
// peers, nil profile). Uploads enqueue under the coordinator's routing
// lock — so queue order equals store order per user — and a single
// goroutine sends them in upload_batch round trips over the pool's
// dedicated ordered connection. One sender per shard, one in-flight
// batch per sender: a user's writes reach the shard in coordinator
// order, always.
//
// Error handling depends on the failover mode:
//   - failover enabled: a broken connection is retried forever with
//     exponential backoff + jitter (bounded redials via the pool's lazy
//     dial); a rotation declares the shard dead after DeadAfter and
//     drops the queue, superseded by re-homing replays.
//   - failover disabled: two attempts, then the batch is dropped and
//     the error held sticky for the next flush — the pre-batching
//     behavior, where a dead shard fails its users' operations.
//
// An application-level rejection (the shard answered ok:false) never
// retries: the batch's applied prefix is consumed, the rejected entry
// dropped, the tail kept in order, and the error held for flush.
type orderedSender struct {
	shard  int
	pool   *shardPool
	health *shardHealth
	cm     *metrics.ClusterMetrics
	fo     Failover
	max    int // batch size cap
	cap    int // queue soft capacity (waitCap blocks above it)

	mu       sync.Mutex
	cond     *sync.Cond // signaled on enqueue and close
	queue    []service.UploadEntry
	inflight bool
	lastErr  error         // sticky until the next flush
	drained  chan struct{} // closed when queue empties, then nil
	notFull  chan struct{} // closed when len(queue) <= cap, then nil
	closed   bool

	done chan struct{} // interrupts backoff sleeps
	wg   sync.WaitGroup
}

func newOrderedSender(shard int, pool *shardPool, health *shardHealth, cm *metrics.ClusterMetrics, fo Failover, maxBatch, queueCap int) *orderedSender {
	s := &orderedSender{
		shard:  shard,
		pool:   pool,
		health: health,
		cm:     cm,
		fo:     fo,
		max:    maxBatch,
		cap:    queueCap,
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.run()
	return s
}

// enqueue appends one item. Callers hold the coordinator's routing lock,
// which is what makes queue order equal store order.
func (s *orderedSender) enqueue(it service.UploadEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cluster: shard %d sender closed", s.shard)
	}
	s.queue = append(s.queue, it)
	s.cond.Signal()
	return nil
}

// waitCap blocks while the queue is over capacity — soft backpressure so
// a writer outrunning the shard parks instead of growing the queue
// without bound. Called after the routing lock is released.
func (s *orderedSender) waitCap(ctx context.Context) error {
	for {
		s.mu.Lock()
		if s.closed || len(s.queue) <= s.cap {
			s.mu.Unlock()
			return nil
		}
		if s.notFull == nil {
			s.notFull = make(chan struct{})
		}
		ch := s.notFull
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// flush blocks until every item enqueued before the call has been
// acknowledged (or abandoned per the failover policy), then returns and
// clears the sticky error. ctx bounds the wait.
func (s *orderedSender) flush(ctx context.Context) error {
	for {
		s.mu.Lock()
		if (len(s.queue) == 0 && !s.inflight) || s.closed {
			err := s.lastErr
			s.lastErr = nil
			s.mu.Unlock()
			return err
		}
		if s.drained == nil {
			s.drained = make(chan struct{})
		}
		ch := s.drained
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// dropQueue abandons everything queued (and any sticky error): the
// rotation that declared this shard dead re-homes every affected user's
// stored upload, which supersedes the queued forwards.
func (s *orderedSender) dropQueue() {
	s.mu.Lock()
	s.queue = nil
	s.lastErr = nil
	s.releaseLocked()
	s.mu.Unlock()
}

// close stops the sender. Anything still queued is abandoned — the
// coordinator's store remains the source of truth.
func (s *orderedSender) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	s.releaseLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// releaseLocked wakes capacity and flush waiters whose condition now
// holds. Callers hold s.mu.
func (s *orderedSender) releaseLocked() {
	if s.notFull != nil && (len(s.queue) <= s.cap || s.closed) {
		close(s.notFull)
		s.notFull = nil
	}
	if s.drained != nil && ((len(s.queue) == 0 && !s.inflight) || s.closed) {
		close(s.drained)
		s.drained = nil
	}
}

// run is the sender loop: wait for work, send one batch, consume per
// the outcome, repeat.
func (s *orderedSender) run() {
	defer s.wg.Done()
	attempt := 0
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.releaseLocked()
			s.cond.Wait()
		}
		if s.closed {
			s.releaseLocked()
			s.mu.Unlock()
			return
		}
		if s.health.isDead() {
			// Superseded: the rotation that declared death re-homes these
			// users from the coordinator's store.
			s.queue = nil
			s.releaseLocked()
			s.mu.Unlock()
			attempt = 0
			continue
		}
		n := len(s.queue)
		if n > s.max {
			n = s.max
		}
		// Sent as is, without a copy: consumeLocked only re-slices and
		// enqueue appends past len(s.queue), so nothing writes into the
		// batch's elements while it is in flight.
		batch := s.queue[:n:n]
		s.inflight = true
		s.mu.Unlock()

		var accepted int
		err := s.pool.ordered(func(cl *service.Client) error {
			var err error
			accepted, err = cl.UploadBatch(batch)
			return err
		})

		s.mu.Lock()
		s.inflight = false
		switch {
		case err == nil:
			s.consumeLocked(n)
			s.cm.ObserveBatch(n)
			s.health.markSuccess()
			attempt = 0
		case !connBroken(err):
			// The shard answered: the prefix [0, accepted) is applied, entry
			// `accepted` was rejected. Drop only the rejected entry, keep
			// the tail in order, and hold the error for the next flush.
			rejected := batch[min(accepted, n-1)].User
			s.consumeLocked(min(accepted+1, n))
			s.lastErr = fmt.Errorf("shard %d rejected upload for user %d: %w", s.shard, rejected, err)
			s.health.markSuccess()
			attempt = 0
		default:
			s.health.markFailure()
			s.cm.ObserveShardRetry(s.shard)
			s.lastErr = err
			attempt++
			if !s.fo.enabled() && attempt >= 2 {
				// Pre-failover semantics: give up on this batch; the sticky
				// error surfaces at the next flush (rotation).
				s.consumeLocked(n)
				attempt = 0
				s.releaseLocked()
				s.mu.Unlock()
				continue
			}
			s.mu.Unlock()
			s.sleep(backoffFor(s.fo, attempt))
			continue
		}
		s.releaseLocked()
		s.mu.Unlock()
	}
}

// consumeLocked removes the first n items (clamped: a concurrent
// dropQueue may have emptied the queue under us).
func (s *orderedSender) consumeLocked(n int) {
	if n > len(s.queue) {
		n = len(s.queue)
	}
	s.queue = s.queue[n:]
}

// sleep waits d or until the sender closes, whichever comes first.
func (s *orderedSender) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.done:
	}
}

// backoffFor computes the attempt'th retry delay: exponential from
// RetryBase, capped at RetryMax, plus up to 50% jitter.
func backoffFor(fo Failover, attempt int) time.Duration {
	d := fo.RetryBase
	for i := 1; i < attempt && d < fo.RetryMax; i++ {
		d *= 2
	}
	if d > fo.RetryMax {
		d = fo.RetryMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}
