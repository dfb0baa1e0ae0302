// Package anonymizer implements the centralized variant of phase-1
// clustering: a dedicated server that has the complete proximity
// information submitted by all users (Fig. 3, path ¬).
//
// On the first cloaking request it runs the centralized t-connectivity
// k-clustering over the entire WPG and caches every cluster; all
// subsequent requests are answered from the cache at no communication
// cost. The first request therefore costs one proximity-upload message
// per user — the "upper bound" curve in the paper's Fig. 9/11/12.
// Alternatively, Build clusters the graph eagerly (the epoch pipeline
// does this in the background before publishing a generation), after
// which every Cloak is a pure cache read.
//
// The server is built for concurrent request traffic: the one-time
// clustering runs behind a claim latch (the first caller — Build or
// Cloak — performs the clustering, fanned out across the WPG's connected
// components on a bounded worker pool; concurrent callers wait on a done
// channel and honor context cancellation while waiting). Every later
// Cloak call touches only the Registry's RWMutex read path, so
// steady-state requests never contend on a build lock.
//
// Note the paper's critique still applies: the anonymizer sees only
// proximity data, not coordinates, so even this centralized party never
// learns user locations — that is the whole point of non-exposure
// cloaking.
package anonymizer

import (
	"context"
	"fmt"
	"sync/atomic"

	"nonexposure/internal/core"
	"nonexposure/internal/trace"
	"nonexposure/internal/wpg"
)

// Server is the centralized anonymizer for one immutable proximity
// graph. In the epoch pipeline each generation owns its own Server; the
// Epoch label identifies which generation a cluster was served from.
// Safe for concurrent use.
type Server struct {
	g       *wpg.Graph
	k       int
	workers int
	epoch   uint64

	reg      *core.Registry
	claimed  atomic.Bool
	done     chan struct{}
	buildErr error
	skipped  atomic.Int64
}

// Option configures a Server.
type Option func(*Server)

// WithK sets the anonymity level. Defaults to 10 (Table I).
func WithK(k int) Option { return func(s *Server) { s.k = k } }

// WithWorkers sets the clustering worker count for the one-time build
// (<= 0 selects GOMAXPROCS; 1 reproduces the serial build).
func WithWorkers(n int) Option { return func(s *Server) { s.workers = n } }

// WithEpoch labels the server with the generation it serves; Epoch
// returns it. Zero (the default) means "not part of an epoch pipeline".
func WithEpoch(e uint64) Option { return func(s *Server) { s.epoch = e } }

// NewServer returns an anonymizer for the given proximity graph,
// configured by options. It panics if the configured k < 1.
func NewServer(g *wpg.Graph, opts ...Option) *Server {
	s := &Server{g: g, k: 10, done: make(chan struct{})}
	for _, opt := range opts {
		opt(s)
	}
	if s.k < 1 {
		panic(fmt.Sprintf("anonymizer: k must be >= 1, got %d", s.k))
	}
	s.reg = core.NewRegistry(g.NumVertices())
	return s
}

// K returns the configured anonymity level.
func (s *Server) K() int { return s.k }

// Epoch returns the generation label this server serves (0 outside an
// epoch pipeline).
func (s *Server) Epoch() uint64 { return s.epoch }

// Registry exposes the server's cluster registry (read-only use).
func (s *Server) Registry() *core.Registry { return s.reg }

// runBuild performs the one-time clustering. Exactly one goroutine —
// whichever won the claim — calls it; everyone else waits on done. When
// ctx carries a trace span the clustering reports as an
// "anonymizer.build" stage with the core cluster/register children
// under it.
func (s *Server) runBuild(ctx context.Context) {
	defer close(s.done)
	bctx, bsp := trace.StartChild(ctx, "anonymizer.build")
	defer bsp.End()
	_, skipped, err := core.RegisterCentralizedParallelCtx(bctx, s.g, s.k, s.reg, s.workers)
	if err != nil {
		s.buildErr = fmt.Errorf("anonymizer: initial clustering: %w", err)
		return
	}
	s.skipped.Store(int64(skipped))
}

// Build clusters the whole graph now (idempotent; concurrent calls
// coalesce onto one clustering run). A caller that arrives while another
// build is in flight waits for it, honoring ctx cancellation; the build
// itself always runs to completion once started. After a successful
// Build, every Cloak is a zero-cost cache read.
func (s *Server) Build(ctx context.Context) error {
	if s.claimed.CompareAndSwap(false, true) {
		s.runBuild(ctx)
		return s.buildErr
	}
	select {
	case <-s.done:
		return s.buildErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Adopt installs externally computed clusters instead of running the
// clustering here: the incremental epoch rebuild clusters only dirty
// components and splices the rest from the previous generation, then
// hands the merged result to the new generation's server through this
// entry point. clusters must be whole-graph clustering output —
// disjoint member sets ordered and numbered exactly as
// core.CentralizedTConnParallel emits them — and skipped is the number
// of users left in undersized components. The registry adopts each
// cluster's member slice by reference (core.Registry.AdoptBatch): it
// must be sorted ascending and never written again, which lets
// generations share the members of every spliced component. Adopt
// takes the same build-claim latch as Build/first-Cloak, so it is
// mutually exclusive with them and idempotent-hostile by design:
// adopting into a server that already built (or adopted) returns an
// error.
func (s *Server) Adopt(ctx context.Context, clusters []*core.Cluster, skipped int) error {
	if !s.claimed.CompareAndSwap(false, true) {
		return fmt.Errorf("anonymizer: Adopt on an already-built server (epoch %d)", s.epoch)
	}
	defer close(s.done)
	_, rsp := trace.StartChild(ctx, "core.register")
	memberSets := make([][]int32, len(clusters))
	ts := make([]int32, len(clusters))
	for i, c := range clusters {
		memberSets[i] = c.Members
		ts[i] = c.T
	}
	_, err := s.reg.AdoptBatch(memberSets, ts)
	rsp.End()
	if err != nil {
		s.buildErr = fmt.Errorf("anonymizer: adopt clusters: %w", err)
		return s.buildErr
	}
	s.skipped.Store(int64(skipped))
	return nil
}

// Cloak returns the cluster for host. cost is the number of messages this
// request caused: the full user population when this request performed
// the one-time clustering (everyone uploads its proximity list), zero
// afterwards — and always zero when Build already ran. Under concurrent
// first requests exactly one caller is billed; the others wait for the
// build (honoring ctx) and are served from the cache for free.
func (s *Server) Cloak(ctx context.Context, host int32) (cluster *core.Cluster, cost int, err error) {
	if int(host) < 0 || int(host) >= s.g.NumVertices() {
		return nil, 0, fmt.Errorf("anonymizer: no such user %d", host)
	}
	if s.claimed.CompareAndSwap(false, true) {
		s.runBuild(ctx)
		cost = s.g.NumVertices()
	} else {
		select {
		case <-s.done:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	if s.buildErr != nil {
		return nil, cost, s.buildErr
	}
	c, ok := s.reg.ClusterOf(host)
	if !ok {
		return nil, cost, fmt.Errorf("%w: user %d is in a component smaller than k=%d",
			core.ErrInsufficientUsers, host, s.k)
	}
	return c, cost, nil
}

// Unclusterable returns how many users ended up in undersized components
// (0 before the clustering ran).
func (s *Server) Unclusterable() int {
	return int(s.skipped.Load())
}
