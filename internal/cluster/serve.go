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
// a single cloakd, through the same accept loop and line loop
// (service.Serve), so existing clients work unchanged against a
// cluster. Unlike a shard, it sets no idle deadline. The listener and
// every accepted connection stay open until ctx is canceled or Close is
// called.
func (c *Coordinator) Listen(ctx context.Context, addr string) (net.Addr, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	c.acc = service.Serve(ctx, ln, 0, c.rm, c.serveRequest)
	return ln.Addr(), nil
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
