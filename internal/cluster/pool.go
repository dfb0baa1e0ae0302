package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"nonexposure/internal/service"
)

// shardPool manages the coordinator's connections to one shard. Two
// paths with different consistency needs:
//
//   - the ordered path: a single dedicated connection carrying every
//     state-changing forward (uploads, border replays, tombstones) so a
//     user's writes reach the shard in coordinator order — two pooled
//     connections could reorder an upload and the tombstone that
//     supersedes it;
//   - the query path: a small pool of connections for reads and rotates
//     (cloak, epoch, stats, ping, freeze), which tolerate any
//     interleaving. Each is a read or an idempotent freeze, so a query
//     is safe to send again.
//
// Every connection uses the service.Dial defaults for its dial and op
// timeouts.
type shardPool struct {
	addr string

	ordMu sync.Mutex
	ord   *service.Client

	qMu  sync.Mutex
	idle []*service.Client

	closed bool
}

// poolSize caps the idle query connections kept per shard; the ordered
// connection is separate and always single.
const poolSize = 4

func newShardPool(addr string) *shardPool {
	return &shardPool{addr: addr}
}

// connBroken reports whether err poisoned the connection it happened on
// (timeouts leave an unread response in flight; EOF and friends mean the
// peer is gone). Application-level errors — the shard answered
// ok:false — keep the connection perfectly reusable.
func connBroken(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// ordered runs fn on the dedicated ordered connection, dialing it lazily
// and redialing once if the previous call left it broken.
func (p *shardPool) ordered(fn func(*service.Client) error) error {
	p.ordMu.Lock()
	defer p.ordMu.Unlock()
	if p.closed {
		return fmt.Errorf("cluster: shard pool %s closed", p.addr)
	}
	for attempt := 0; ; attempt++ {
		if p.ord == nil {
			c, err := service.Dial(p.addr)
			if err != nil {
				return err
			}
			p.ord = c
		}
		err := fn(p.ord)
		if connBroken(err) {
			p.ord.Close()
			p.ord = nil
			if attempt == 0 {
				continue
			}
		}
		return err
	}
}

// query runs fn on a pooled connection, dialing up to poolSize of them
// on demand. A connection that breaks mid-call is dropped instead of
// returned. A pooled one may have broken while it sat idle, so fn then
// runs once more on a freshly dialed connection, as ordered redials.
func (p *shardPool) query(fn func(*service.Client) error) error {
	for fresh := false; ; fresh = true {
		c, pooled, err := p.acquire(fresh)
		if err != nil {
			return err
		}
		err = fn(c)
		if !connBroken(err) {
			p.release(c)
			return err
		}
		c.Close()
		if !pooled {
			return err
		}
	}
}

// acquire takes an idle connection (pooled true), or dials one when
// none is idle or fresh is set.
func (p *shardPool) acquire(fresh bool) (c *service.Client, pooled bool, err error) {
	p.qMu.Lock()
	if p.closed {
		p.qMu.Unlock()
		return nil, false, fmt.Errorf("cluster: shard pool %s closed", p.addr)
	}
	if n := len(p.idle); n > 0 && !fresh {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.qMu.Unlock()
		return c, true, nil
	}
	p.qMu.Unlock()
	// Dial outside the lock; the pool intentionally overshoots poolSize
	// under a thundering herd rather than serializing dials — release
	// trims back down to poolSize.
	c, err = service.Dial(p.addr)
	return c, false, err
}

func (p *shardPool) release(c *service.Client) {
	p.qMu.Lock()
	if !p.closed && len(p.idle) < poolSize {
		p.idle = append(p.idle, c)
		p.qMu.Unlock()
		return
	}
	p.qMu.Unlock()
	c.Close()
}

func (p *shardPool) close() {
	// closed is read under either mutex, so set it under both (the only
	// place both are held; ordMu-then-qMu is the fixed order).
	p.ordMu.Lock()
	p.qMu.Lock()
	p.closed = true
	if p.ord != nil {
		p.ord.Close()
		p.ord = nil
	}
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
	p.qMu.Unlock()
	p.ordMu.Unlock()
}
