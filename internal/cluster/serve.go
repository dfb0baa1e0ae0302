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
// a single cloakd (v0 and v1), through the same codec and line loop
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
func (c *Coordinator) serveRequest(ctx context.Context, req service.Request) any {
	start := time.Now()
	resp, ok := c.handle(ctx, req)
	c.rm.Observe(string(req.Op), time.Since(start), ok)
	return resp
}

// handle answers one request in the shape its protocol version expects.
func (c *Coordinator) handle(ctx context.Context, req service.Request) (any, bool) {
	v1 := req.V >= service.ProtocolVersion
	fail := func(err error) (any, bool) {
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, Error: err.Error()}, false
		}
		return service.Response{Error: err.Error()}, false
	}
	switch req.Op {
	case service.OpPing:
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true}, true
		}
		return service.Response{OK: true}, true

	case service.OpUpload:
		var prof *service.ProfileSpec
		if v1 {
			prof = req.Profile
		}
		if err := c.Upload(ctx, UploadRequest{User: req.User, Peers: req.Peers, Profile: prof}); err != nil {
			return fail(err)
		}
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true}, true
		}
		return service.Response{OK: true}, true

	case service.OpUploadBatch:
		if !v1 {
			return service.Response{Error: `upload_batch requires "v":1`}, false
		}
		for i, e := range req.Uploads {
			if err := c.Upload(ctx, e); err != nil {
				env := service.Envelope{V: service.ProtocolVersion, Error: err.Error()}
				env.Batch = &service.BatchPayload{Accepted: i}
				return env, false
			}
		}
		return service.Envelope{V: service.ProtocolVersion, OK: true, Batch: &service.BatchPayload{Accepted: len(req.Uploads)}}, true

	case service.OpCloak:
		p, err := c.Cloak(ctx, req.User)
		if err != nil {
			return fail(err)
		}
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true, Cloak: p}, true
		}
		return service.Response{OK: true, Cluster: p.Cluster, Cost: p.Cost, Epoch: p.Epoch}, true

	case service.OpFreeze, service.OpRotate:
		if v1 {
			ep, err := c.rotateEpoch(ctx)
			if err != nil {
				return fail(err)
			}
			return service.Envelope{V: service.ProtocolVersion, OK: true, Epoch: ep}, true
		}
		st, err := c.Rotate(ctx)
		if err != nil {
			return fail(err)
		}
		return service.Response{OK: true, EdgeCount: st.Edges, Epoch: st.Epoch}, true

	case service.OpEpoch:
		ep, err := c.EpochStatus(ctx)
		if err != nil {
			return fail(err)
		}
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true, Epoch: ep}, true
		}
		return service.Response{OK: true, Epoch: ep.Epoch, Frozen: ep.Published, EdgeCount: ep.Edges, Clusters: ep.Clusters}, true

	case service.OpStats:
		sp, err := c.Stats(ctx)
		if err != nil {
			return fail(err)
		}
		if v1 {
			return service.Envelope{V: service.ProtocolVersion, OK: true, Stats: sp}, true
		}
		return service.Response{
			OK: true, Users: sp.Users, Uploads: sp.Uploads, Frozen: sp.Frozen,
			Epoch: sp.Epoch, Clusters: sp.Clusters, EdgeCount: sp.Edges,
			Requests: sp.Requests, ReqErrors: sp.ReqErrors,
			LatP50us: sp.LatP50us, LatP95us: sp.LatP95us, LatP99us: sp.LatP99us,
			OpCounts: sp.OpCounts,
		}, true

	default:
		return fail(fmt.Errorf("cluster: unknown op %q", req.Op))
	}
}
