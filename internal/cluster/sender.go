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

// Sizing of the per-shard ordered queues. A batch of 128 uploads is
// ~30 KiB on the wire — far under MaxLineBytes — and the queue capacity
// only backpressures writers, it never drops.
const (
	DefaultMaxBatch = 128
	queueCapacity   = 8192
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
// A batch leaves the queue only when the shard acknowledges it, when a
// rotation declares the shard dead (dropQueue: the re-homing replays
// from the coordinator's store supersede it), or when the coordinator
// closes. A broken connection is retried with exponential backoff and
// jitter until one of those happens. Delivery is therefore
// at-least-once: a batch the shard applied but whose response was lost
// is sent again.
//
// A rejection (the shard answered ok:false) is never retried: the
// batch's applied prefix is consumed, the rejected entry dropped, the
// tail kept in order, and the error held for the next flush. It is the
// only error a flush reports besides its context's.
type orderedSender struct {
	shard  int
	pool   *shardPool
	health *shardHealth
	cm     *metrics.ClusterMetrics
	max    int // batch size cap

	mu       sync.Mutex
	cond     *sync.Cond // signaled on enqueue and close
	queue    []service.UploadEntry
	inflight bool
	drops    uint64        // dropQueue calls: the reply to a batch dropped in flight consumes nothing
	lastErr  error         // a shard's rejection, sticky until the next flush
	drained  chan struct{} // closed when queue empties, then nil
	notFull  chan struct{} // closed when len(queue) <= queueCapacity, then nil
	closed   bool

	done chan struct{} // interrupts backoff sleeps
	wg   sync.WaitGroup
}

func newOrderedSender(shard int, pool *shardPool, health *shardHealth, cm *metrics.ClusterMetrics, maxBatch int) *orderedSender {
	s := &orderedSender{
		shard:  shard,
		pool:   pool,
		health: health,
		cm:     cm,
		max:    maxBatch,
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
// without bound. Behind a failing shard it parks until the shard
// recovers or a rotation declares it dead; parked, when non-nil, runs
// once every period while the writer stays parked, so the caller can
// start that rotation. Called after the routing lock is released.
func (s *orderedSender) waitCap(ctx context.Context, period time.Duration, parked func()) error {
	var tick <-chan time.Time
	for {
		s.mu.Lock()
		if s.closed || len(s.queue) <= queueCapacity {
			s.mu.Unlock()
			return nil
		}
		if s.notFull == nil {
			s.notFull = make(chan struct{})
		}
		ch := s.notFull
		s.mu.Unlock()
		if parked != nil && tick == nil {
			t := time.NewTicker(period)
			defer t.Stop()
			tick = t.C
		}
		select {
		case <-ch:
		case <-tick:
			parked()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// flush blocks until every item enqueued before the call has been
// acknowledged (or dropped with a dead shard's queue), then returns and
// clears the sticky rejection. ctx bounds the wait.
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

// dropQueue abandons everything queued, the batch in flight included,
// and any sticky error, and returns what it dropped: the rotation that
// declares this shard dead re-homes every affected user's stored
// upload, which supersedes the queued forwards.
func (s *orderedSender) dropQueue() []service.UploadEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := s.queue
	s.queue = nil
	s.lastErr = nil
	s.drops++
	s.releaseLocked()
	return dropped
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
	if s.notFull != nil && (len(s.queue) <= queueCapacity || s.closed) {
		close(s.notFull)
		s.notFull = nil
	}
	if s.drained != nil && ((len(s.queue) == 0 && !s.inflight) || s.closed) {
		close(s.drained)
		s.drained = nil
	}
}

// run is the sender loop: wait for work, send one batch, consume what
// the shard acknowledged, repeat.
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
		n := len(s.queue)
		if n > s.max {
			n = s.max
		}
		// Sent as is, without a copy: consumeLocked only re-slices and
		// enqueue appends past len(s.queue), so nothing writes into the
		// batch's elements while it is in flight.
		batch := s.queue[:n:n]
		drops := s.drops
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
		case s.drops != drops:
			// The batch went with the queue of a shard declared dead; the
			// queue now holds only what was enqueued after.
			attempt = 0
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
			// Not acknowledged: keep the batch and send it again.
			s.health.markFailure()
			s.cm.ObserveShardRetry(s.shard)
			attempt++
			s.mu.Unlock()
			s.sleep(backoffFor(attempt))
			continue
		}
		s.releaseLocked()
		s.mu.Unlock()
	}
}

// consumeLocked removes the first n items.
func (s *orderedSender) consumeLocked(n int) {
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
// retryBase, capped at retryMax, plus up to 50% jitter.
func backoffFor(attempt int) time.Duration {
	d := retryBase
	for i := 1; i < attempt && d < retryMax; i++ {
		d *= 2
	}
	if d > retryMax {
		d = retryMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}
