package service

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"nonexposure/internal/metrics"
)

// Accept-error backoff bounds: a persistent Accept failure (EMFILE, for
// example) must not busy-spin the accept loop, but recovery should be
// quick once the condition clears.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// Acceptor serves the line protocol on one listener: it accepts
// connections and runs ServeLines on each until its context ends or
// Close is called. A failing Accept is retried with exponential backoff
// instead of ending the loop, so the port never stays open with nothing
// accepting. A single cloakd and the cluster coordinator both serve
// through one.
type Acceptor struct {
	l      net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	idle   time.Duration
	rm     *metrics.RequestMetrics
	handle func(context.Context, Request) Envelope
	wg     sync.WaitGroup

	shutOnce sync.Once
	closeErr error

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // open connections; nil once shut
}

// Serve starts accepting on l and returns at once. Each connection is
// served by ServeLines with idle, rm and handle. When ctx ends, or on
// Close, the listener and every open connection are closed — a handler
// blocked reading an idle client must not stall shutdown — and a
// connection accepted after that is refused.
func Serve(ctx context.Context, l net.Listener, idle time.Duration, rm *metrics.RequestMetrics,
	handle func(context.Context, Request) Envelope) *Acceptor {
	a := &Acceptor{l: l, idle: idle, rm: rm, handle: handle, conns: make(map[net.Conn]struct{})}
	a.ctx, a.cancel = context.WithCancel(ctx)
	context.AfterFunc(a.ctx, a.shut)
	a.wg.Add(1)
	go a.acceptLoop()
	return a
}

// Close stops accepting, closes the listener and every open connection,
// and waits for the handlers to return. The listener is closed exactly
// once, whether by Close or by the end of the serving context, and
// every Close returns that one close's error.
func (a *Acceptor) Close() error {
	a.cancel()
	a.shut()
	a.wg.Wait()
	return a.closeErr
}

func (a *Acceptor) shut() {
	a.shutOnce.Do(func() {
		a.closeErr = a.l.Close()
		a.connMu.Lock()
		for conn := range a.conns {
			conn.Close()
		}
		a.conns = nil
		a.connMu.Unlock()
	})
}

// track registers an accepted connection so shut can close it; false
// means the acceptor is already shut.
func (a *Acceptor) track(conn net.Conn) bool {
	a.connMu.Lock()
	defer a.connMu.Unlock()
	if a.conns == nil {
		return false
	}
	a.conns[conn] = struct{}{}
	return true
}

func (a *Acceptor) untrack(conn net.Conn) {
	a.connMu.Lock()
	delete(a.conns, conn)
	a.connMu.Unlock()
}

func (a *Acceptor) acceptLoop() {
	defer a.wg.Done()
	var backoff time.Duration
	for {
		conn, err := a.l.Accept()
		if err != nil {
			if a.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			// Persistent failures (EMFILE and friends) would otherwise spin
			// this loop at 100% CPU; back off exponentially and retry.
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			timer := time.NewTimer(backoff)
			select {
			case <-a.ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
			continue
		}
		backoff = 0
		if !a.track(conn) {
			conn.Close()
			return
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			defer a.untrack(conn)
			defer conn.Close()
			ServeLines(a.ctx, conn, a.idle, a.rm, a.handle)
		}()
	}
}
