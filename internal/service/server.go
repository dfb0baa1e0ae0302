package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
	"nonexposure/internal/trace"
)

// Accept-error backoff bounds: a persistent Accept failure (EMFILE, for
// example) must not busy-spin the accept loop, but recovery should be
// quick once the condition clears.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// Server is the network-facing anonymizer, backed by the epoch
// re-clustering pipeline: clients upload proximity rankings at any time,
// rebuilds run in the background per the configured policy (or on
// explicit rotate/freeze), and cloak requests are answered from the
// current published generation on a lock-free read path. Safe for
// concurrent connections; every request is folded into the server's
// request metrics.
type Server struct {
	numUsers    int
	k           int
	workers     int
	idleTimeout time.Duration
	// epochOpts is passed through to epoch.New after the mirrored
	// service options, so pipeline knobs (rebuild policy, incremental
	// mode, ingest buffers, area estimator, ...) need no per-field
	// service option; see WithEpochOptions.
	epochOpts []epoch.Option

	mgr        *epoch.Manager
	reqMetrics *metrics.RequestMetrics
	em         *metrics.EpochMetrics
	tracer     *trace.Recorder

	// ctx governs every accept loop and connection; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	listener net.Listener
	wg       sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// Option configures a Server.
type Option func(*Server)

// WithNumUsers sets the population size (required: the protocol
// validates user ids against it).
func WithNumUsers(n int) Option { return func(s *Server) { s.numUsers = n } }

// WithK sets the anonymity level (default 10, Table I).
func WithK(k int) Option { return func(s *Server) { s.k = k } }

// WithWorkers sets the clustering worker count per rebuild (<= 0
// selects GOMAXPROCS).
func WithWorkers(n int) Option { return func(s *Server) { s.workers = n } }

// WithEpochOptions passes epoch pipeline options straight through to
// the underlying epoch.New call (default none). They are applied after
// the options the server derives from its own configuration (k,
// workers, metrics, tracing), so an explicit epoch option always wins.
// This is the one extension point for pipeline knobs — rebuild policy,
// incremental mode, ingest buffers, area estimator — so new epoch
// options never need a mirrored service option.
func WithEpochOptions(opts ...epoch.Option) Option {
	return func(s *Server) { s.epochOpts = append(s.epochOpts, opts...) }
}

// WithMetrics attaches epoch pipeline metrics (nil is fine; request
// metrics are always collected regardless).
func WithMetrics(em *metrics.EpochMetrics) Option { return func(s *Server) { s.em = em } }

// WithIdleTimeout sets the per-connection read deadline: a client that
// sends nothing for this long is disconnected (default 2m; <= 0
// disables).
func WithIdleTimeout(d time.Duration) Option { return func(s *Server) { s.idleTimeout = d } }

// WithTraceRecorder enables request tracing: every handled request gets
// a root span threaded down through the epoch pipeline, anonymizer, and
// core stages, and the finished span tree lands in r (newest first, for
// the admin /tracez view). The same recorder also receives epoch-build
// span trees. nil (the default) disables tracing entirely — the hot
// path then pays only nil checks.
func WithTraceRecorder(r *trace.Recorder) Option { return func(s *Server) { s.tracer = r } }

// New creates a server configured by options. WithNumUsers is required.
func New(opts ...Option) (*Server, error) {
	s := &Server{
		k:           10,
		idleTimeout: 2 * time.Minute,
		reqMetrics:  metrics.NewRequestMetrics(),
		conns:       make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	epochOpts := append([]epoch.Option{
		epoch.WithK(s.k),
		epoch.WithWorkers(s.workers),
		epoch.WithMetrics(s.em),
		epoch.WithTraceRecorder(s.tracer),
	}, s.epochOpts...)
	mgr, err := epoch.New(s.numUsers, epochOpts...)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.mgr = mgr
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. The accept loop stops when ctx is canceled
// or the server is closed, whichever comes first.
func (s *Server) Listen(ctx context.Context, addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	s.listener = l
	if ctx != nil && ctx.Done() != nil {
		// Tie the caller's ctx to the server lifecycle.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			select {
			case <-ctx.Done():
				go s.Close() // Close waits on wg; don't deadlock on ourselves
			case <-s.ctx.Done():
			}
		}()
	}
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr(), nil
}

// Close stops accepting, closes open connections (a blocked read on an
// idle client must not stall shutdown), shuts the epoch pipeline down,
// and waits for the handler goroutines to finish. It is idempotent:
// repeated calls return the first call's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		if s.listener != nil {
			s.closeErr = s.listener.Close()
		}
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
		s.mgr.Close()
	})
	return s.closeErr
}

// Metrics returns the server's request metrics (counts, error counts,
// latency percentiles per operation).
func (s *Server) Metrics() *metrics.RequestMetrics { return s.reqMetrics }

// EpochMetrics returns the attached epoch pipeline metrics (nil unless
// WithMetrics was given).
func (s *Server) EpochMetrics() *metrics.EpochMetrics { return s.em }

// Manager exposes the epoch pipeline (read-only use: status,
// transcript).
func (s *Server) Manager() *epoch.Manager { return s.mgr }

// Tracer returns the configured trace recorder (nil when tracing is
// disabled). The admin endpoint reads recent span trees from it.
func (s *Server) Tracer() *trace.Recorder { return s.tracer }

func (s *Server) track(conn net.Conn) {
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
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
			case <-s.ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(s.ctx, conn)
		}()
	}
}

// serveConn handles one client with the shared line loop (see
// ServeLines): requests carrying "v":1 are answered with the v1
// Envelope, the rest in the legacy shape.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	s.track(conn)
	defer s.untrack(conn)
	defer conn.Close()
	ServeLines(ctx, conn, s.idleTimeout, s.reqMetrics, func(ctx context.Context, req Request) any {
		if req.V >= 1 {
			return s.HandleEnvelope(ctx, req)
		}
		return s.handleV0(ctx, req)
	})
}

// Handle processes one v0 request; exported so tests (and alternative
// transports) can bypass TCP. Every request is timed and counted in the
// server's metrics.
func (s *Server) Handle(req Request) Response {
	return s.handleV0(s.ctx, req)
}

func (s *Server) handleV0(ctx context.Context, req Request) Response {
	start := time.Now()
	ctx, sp := s.startRequestSpan(ctx, req.Op)
	resp := s.dispatchV0(ctx, req)
	s.finishRequestSpan(sp)
	s.reqMetrics.Observe(string(req.Op), time.Since(start), resp.Error == "")
	return resp
}

// HandleEnvelope processes one request and answers in the v1 format.
func (s *Server) HandleEnvelope(ctx context.Context, req Request) Envelope {
	start := time.Now()
	ctx, sp := s.startRequestSpan(ctx, req.Op)
	env := s.dispatchV1(ctx, req)
	s.finishRequestSpan(sp)
	s.reqMetrics.Observe(string(req.Op), time.Since(start), env.Error == "")
	return env
}

// startRequestSpan opens the per-request root span when a trace recorder
// is configured. With tracing off it returns (ctx, nil) and the request
// path pays a single nil comparison.
func (s *Server) startRequestSpan(ctx context.Context, op Op) (context.Context, *trace.Span) {
	if s.tracer == nil {
		return ctx, nil
	}
	sp := trace.New("request." + string(op))
	return trace.NewContext(ctx, sp), sp
}

// finishRequestSpan freezes and records the request's root span (no-op
// with tracing off).
func (s *Server) finishRequestSpan(sp *trace.Span) {
	sp.End()
	s.tracer.Record(sp)
}

func (s *Server) dispatchV0(ctx context.Context, req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpUpload:
		// v0 predates profiles; a nil Profile leaves any stored profile
		// untouched, as client.go's plain Upload promises.
		usp := trace.FromContext(ctx).Child("epoch.upload")
		err := s.mgr.Upload(ctx, epoch.UploadRequest{User: req.User, Peers: req.Peers})
		usp.End()
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true}
	case OpUploadBatch:
		// The batch shape only exists in v1; v0 clients predate it.
		return Response{Error: `upload_batch requires "v":1`}
	case OpFreeze:
		gen, err := s.rotateAndWait(ctx)
		if err != nil {
			return Response{Error: freezeErr(err).Error()}
		}
		return Response{OK: true, Epoch: gen.Epoch, EdgeCount: gen.Edges}
	case OpRotate:
		ep, err := s.mgr.Rotate(ctx)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, Epoch: ep}
	case OpCloak:
		res, err := s.mgr.Cloak(ctx, req.User)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, Cluster: res.Cluster.Members, Cost: res.Cost, Epoch: res.Epoch}
	case OpEpoch:
		st := s.mgr.Status()
		return Response{OK: true, Epoch: st.Epoch, Frozen: st.Published,
			Clusters: st.Clusters, EdgeCount: st.Edges}
	case OpStats:
		st := s.mgr.Status()
		snap := s.reqMetrics.Snapshot()
		resp := Response{
			OK:        true,
			Users:     st.Users,
			Uploads:   st.Uploads,
			Frozen:    st.Published,
			Epoch:     st.Epoch,
			Clusters:  st.Clusters,
			EdgeCount: st.Edges,
			Requests:  snap.Total,
			ReqErrors: snap.Errors,
			LatP50us:  float64(snap.P50) / float64(time.Microsecond),
			LatP95us:  float64(snap.P95) / float64(time.Microsecond),
			LatP99us:  float64(snap.P99) / float64(time.Microsecond),
		}
		if len(snap.Ops) > 0 {
			resp.OpCounts = make(map[string]uint64, len(snap.Ops))
			for _, op := range snap.Ops {
				resp.OpCounts[op.Op] = op.Count
			}
		}
		return resp
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (s *Server) dispatchV1(ctx context.Context, req Request) Envelope {
	ok := Envelope{V: ProtocolVersion, OK: true}
	switch req.Op {
	case OpPing:
		return ok
	case OpUpload:
		usp := trace.FromContext(ctx).Child("epoch.upload")
		err := s.mgr.Upload(ctx, epoch.UploadRequest{
			User:    req.User,
			Peers:   req.Peers,
			Profile: req.Profile.Core(),
		})
		usp.End()
		if err != nil {
			return errEnvelope(err.Error())
		}
		return ok
	case OpUploadBatch:
		reqs := make([]epoch.UploadRequest, len(req.Uploads))
		for i, e := range req.Uploads {
			reqs[i] = epoch.UploadRequest{User: e.User, Peers: e.Peers, Profile: e.Profile.Core()}
		}
		usp := trace.FromContext(ctx).Child("epoch.upload_batch")
		n, err := s.mgr.UploadBatch(ctx, reqs)
		usp.End()
		if err != nil {
			env := errEnvelope(err.Error())
			env.Batch = &BatchPayload{Accepted: n}
			return env
		}
		ok.Batch = &BatchPayload{Accepted: n}
		return ok
	case OpFreeze:
		gen, err := s.rotateAndWait(ctx)
		if err != nil {
			return errEnvelope(freezeErr(err).Error())
		}
		st := s.mgr.Status()
		st.Epoch, st.Edges, st.Clusters, st.Skipped = gen.Epoch, gen.Edges, gen.Clusters, gen.Skipped
		st.ShardsTotal, st.ShardsRebuilt = gen.ShardsTotal, gen.ShardsRebuilt
		ok.Epoch = epochPayload(st)
		return ok
	case OpRotate:
		ep, err := s.mgr.Rotate(ctx)
		if err != nil {
			return errEnvelope(err.Error())
		}
		p := epochPayload(s.mgr.Status())
		p.Epoch = ep // the freshly assigned generation, building in the background
		ok.Epoch = p
		return ok
	case OpCloak:
		res, err := s.mgr.Cloak(ctx, req.User)
		if err != nil {
			return errEnvelope(err.Error())
		}
		ok.Cloak = &CloakPayload{
			Cluster:    res.Cluster.Members,
			Cost:       res.Cost,
			Epoch:      res.Epoch,
			EffectiveK: res.EffectiveK,
			Degraded:   res.Degraded,
		}
		return ok
	case OpEpoch:
		ok.Epoch = epochPayload(s.mgr.Status())
		return ok
	case OpStats:
		ok.Stats = statsPayload(s.mgr.Status(), s.reqMetrics.Snapshot())
		return ok
	default:
		return errEnvelope(fmt.Sprintf("unknown op %q", req.Op))
	}
}

// rotateAndWait is the synchronous freeze: trigger a rotation and block
// until that generation (and anything queued before it) has published.
func (s *Server) rotateAndWait(ctx context.Context) (*epoch.Generation, error) {
	rsp := trace.FromContext(ctx).Child("epoch.rotate")
	ep, err := s.mgr.Rotate(ctx)
	rsp.End()
	if err != nil {
		return nil, err
	}
	ssp := trace.FromContext(ctx).Child("epoch.sync")
	err = s.mgr.Sync(ctx)
	ssp.End()
	if err != nil {
		return nil, err
	}
	for _, gen := range s.mgr.History() {
		if gen.Epoch == ep {
			if gen.BuildErr != nil {
				return nil, fmt.Errorf("build graph: %w", gen.BuildErr)
			}
			return gen, nil
		}
	}
	return nil, fmt.Errorf("service: epoch %d missing from history", ep)
}

// freezeErr maps pipeline errors onto the v0 freeze wording ("already
// frozen") that legacy clients match on.
func freezeErr(err error) error {
	if errors.Is(err, epoch.ErrNoNewUploads) {
		return fmt.Errorf("already frozen (no new uploads since the last epoch)")
	}
	return err
}
