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

// idleTimeout is the per-connection read deadline: a client that sends
// nothing for this long is disconnected.
const idleTimeout = 2 * time.Minute

// Server is the network-facing anonymizer, backed by the epoch
// re-clustering pipeline: clients upload proximity rankings at any time,
// rebuilds run in the background per the configured policy (or on
// explicit rotate/freeze), and cloak requests are answered from the
// current published generation on a lock-free read path. Safe for
// concurrent connections; every request is folded into the server's
// request metrics.
type Server struct {
	numUsers int
	k        int
	workers  int
	// epochOpts is passed through to epoch.New after the mirrored
	// service options, so pipeline knobs (rebuild policy, incremental
	// mode, ingest buffers, area estimator, ...) need no per-field
	// service option; see WithEpochOptions.
	epochOpts []epoch.Option

	mgr        *epoch.Manager
	reqMetrics *metrics.RequestMetrics
	em         *metrics.EpochMetrics
	tracer     *trace.Recorder

	// ctx governs the acceptor and every connection; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	acc *Acceptor
	wg  sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
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
// area estimator — so new epoch options never need a mirrored service
// option.
func WithEpochOptions(opts ...epoch.Option) Option {
	return func(s *Server) { s.epochOpts = append(s.epochOpts, opts...) }
}

// WithMetrics attaches epoch pipeline metrics (nil is fine; request
// metrics are always collected regardless).
func WithMetrics(em *metrics.EpochMetrics) Option { return func(s *Server) { s.em = em } }

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
		k:          10,
		reqMetrics: metrics.NewRequestMetrics(),
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
	s.acc = Serve(s.ctx, l, idleTimeout, s.reqMetrics, s.HandleEnvelope)
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
	return l.Addr(), nil
}

// Close stops accepting, closes open connections (a blocked read on an
// idle client must not stall shutdown), shuts the epoch pipeline down,
// and waits for the handler goroutines to finish. It is idempotent:
// repeated calls return the first call's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		if s.acc != nil {
			s.closeErr = s.acc.Close()
		}
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

// HandleEnvelope processes one parsed request; exported so tests (and
// alternative transports) can bypass TCP. Every request is timed and
// counted in the server's metrics. It answers whatever version req
// carries: the version check is ServeLines'.
func (s *Server) HandleEnvelope(ctx context.Context, req Request) Envelope {
	start := time.Now()
	ctx, sp := s.startRequestSpan(ctx, req.Op)
	env := s.dispatch(ctx, req)
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

func (s *Server) dispatch(ctx context.Context, req Request) Envelope {
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
		return s.freeze(ctx)
	case OpRotate:
		ep, err := s.mgr.Rotate(ctx)
		if errors.Is(err, epoch.ErrNoNewUploads) {
			return s.unchanged()
		}
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

// freeze is the synchronous rotate: trigger a rotation and answer once
// that generation (and every build queued before it) has published,
// with its epoch payload. With nothing new to build it waits for the
// builds already queued instead, so either way the reply comes only
// once every earlier upload's build has finished.
func (s *Server) freeze(ctx context.Context) Envelope {
	gen, err := s.mgr.RotateAndWait(ctx)
	if errors.Is(err, epoch.ErrNoNewUploads) {
		ssp := trace.FromContext(ctx).Child("epoch.sync")
		err = s.mgr.Sync(ctx)
		ssp.End()
		if err != nil {
			return errEnvelope(err.Error())
		}
		return s.unchanged()
	}
	if err != nil {
		return errEnvelope(err.Error())
	}
	if gen.BuildErr != nil {
		return errEnvelope(fmt.Sprintf("build graph: %v", gen.BuildErr))
	}
	st := s.mgr.Status()
	st.Epoch, st.Edges, st.Clusters, st.Skipped = gen.Epoch, gen.Edges, gen.Clusters, gen.Skipped
	st.ShardsTotal, st.ShardsRebuilt = gen.ShardsTotal, gen.ShardsRebuilt
	return Envelope{V: ProtocolVersion, OK: true, Epoch: epochPayload(st)}
}

// unchanged answers a rotate or freeze that found no new uploads: the
// serving generation's epoch payload, flagged unchanged.
func (s *Server) unchanged() Envelope {
	p := epochPayload(s.mgr.Status())
	p.Unchanged = true
	return Envelope{V: ProtocolVersion, OK: true, Epoch: p}
}
