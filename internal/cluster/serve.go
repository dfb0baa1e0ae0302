package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"nonexposure/internal/service"
)

// Listen starts the coordinator's protocol listener on addr and returns
// the bound address. It speaks the same line-delimited JSON protocol as
// a single cloakd, through the same codec and line loop
// (service.ServeLines), so existing clients work unchanged against a
// cluster. The listener and every accepted connection stay open until
// ctx is canceled or Close is called.
func (c *Coordinator) Listen(ctx context.Context, addr string) (net.Addr, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	c.lnClose = func() error {
		cancel()
		return ln.Close()
	}
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if !c.track(conn) {
				conn.Close()
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer c.untrack(conn)
				defer conn.Close()
				service.ServeLines(ctx, conn, 0, c.rm, c.serveRequest)
			}()
		}
	}()
	return ln.Addr(), nil
}

// track registers an accepted connection so Close can close it; false
// means the coordinator is already closing.
func (c *Coordinator) track(conn net.Conn) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conns == nil {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *Coordinator) untrack(conn net.Conn) {
	c.connMu.Lock()
	delete(c.conns, conn)
	c.connMu.Unlock()
}

// closeConns closes every accepted connection — a handler blocked
// reading an idle client must not stall Close — and refuses new ones.
func (c *Coordinator) closeConns() {
	c.connMu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.conns = nil
	c.connMu.Unlock()
}

// serveRequest answers one parsed request and folds it into the
// coordinator's request metrics.
func (c *Coordinator) serveRequest(ctx context.Context, req service.Request) service.Envelope {
	start := time.Now()
	env := c.handle(ctx, req)
	c.rm.Observe(string(req.Op), time.Since(start), env.OK)
	return env
}

// handle answers one request.
func (c *Coordinator) handle(ctx context.Context, req service.Request) service.Envelope {
	ok := service.Envelope{V: service.ProtocolVersion, OK: true}
	fail := func(err error) service.Envelope {
		return service.Envelope{V: service.ProtocolVersion, Error: err.Error()}
	}
	switch req.Op {
	case service.OpPing:
		return ok

	case service.OpUpload:
		if err := c.Upload(ctx, UploadRequest{User: req.User, Peers: req.Peers, Profile: req.Profile}); err != nil {
			return fail(err)
		}
		return ok

	case service.OpUploadBatch:
		for i, e := range req.Uploads {
			if err := c.Upload(ctx, e); err != nil {
				env := fail(err)
				env.Batch = &service.BatchPayload{Accepted: i}
				return env
			}
		}
		ok.Batch = &service.BatchPayload{Accepted: len(req.Uploads)}
		return ok

	case service.OpCloak:
		p, err := c.Cloak(ctx, req.User)
		if err != nil {
			return fail(err)
		}
		ok.Cloak = p
		return ok

	case service.OpFreeze, service.OpRotate:
		ep, err := c.rotateEpoch(ctx)
		if err != nil {
			return fail(err)
		}
		ok.Epoch = ep
		return ok

	case service.OpEpoch:
		ep, err := c.EpochStatus(ctx)
		if err != nil {
			return fail(err)
		}
		ok.Epoch = ep
		return ok

	case service.OpStats:
		sp, err := c.Stats(ctx)
		if err != nil {
			return fail(err)
		}
		ok.Stats = sp
		return ok

	default:
		return fail(fmt.Errorf("cluster: unknown op %q", req.Op))
	}
}
