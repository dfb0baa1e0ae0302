// Package anonymizer implements the centralized variant of phase-1
// clustering: a dedicated server that has the complete proximity
// information submitted by all users (Fig. 3, path ¬).
//
// A Server is built before it serves and never changes afterwards.
// Build runs the centralized t-connectivity k-clustering over the whole
// WPG, fanned out across its connected components on a bounded worker
// pool; New installs a clustering computed elsewhere (the epoch
// pipeline clusters only the components that changed and splices the
// rest from the previous generation). Either way the server holds
// every cluster before its first request, so Cloak is a range check
// and a registry read. The clustering's message cost is billed to the
// first served cloak: one proximity upload per user for Build, the
// paper's "upper bound" curve in Fig. 9/11/12, and the generation's
// uploads for the epoch pipeline. Every later cloak is free.
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
// graph. In the epoch pipeline each generation owns its own Server.
// Safe for concurrent use.
type Server struct {
	n    int
	k    int
	cost int
	reg  *core.Registry
	// billed is set by the first served cloak, which carries cost.
	billed atomic.Bool
}

// New returns a server for g that serves the given whole-graph
// clustering at anonymity level k, billing cost to its first served
// cloak. clusters must be disjoint member sets in the order
// core.MergeClusters emits them; the registry numbers its own clusters
// in that order and ignores the given IDs. It adopts each cluster's
// member slice by reference (core.Registry.AdoptBatch): it must be
// sorted ascending and never written again, which lets epoch
// generations share the members of every spliced component. When ctx
// carries a trace span the installation reports as a "core.register"
// child.
func New(ctx context.Context, g *wpg.Graph, k int, clusters []*core.Cluster, cost int) (*Server, error) {
	if k < 1 {
		return nil, fmt.Errorf("anonymizer: k must be >= 1, got %d", k)
	}
	s := &Server{n: g.NumVertices(), k: k, cost: cost, reg: core.NewRegistry(g.NumVertices())}
	rsp := trace.FromContext(ctx).Child("core.register")
	_, err := s.reg.AdoptBatch(clusters)
	rsp.End()
	if err != nil {
		return nil, fmt.Errorf("anonymizer: adopt clusters: %w", err)
	}
	return s, nil
}

// Build clusters the whole graph with core.CentralizedTConnParallel on
// workers goroutines (<= 0 selects GOMAXPROCS; 1 reproduces the serial
// build) and returns a server whose first served cloak is billed one
// proximity upload per user. When ctx carries a trace span the
// clustering reports as an "anonymizer.build" stage with "core.cluster"
// and "core.register" children.
func Build(ctx context.Context, g *wpg.Graph, k, workers int) (*Server, error) {
	if k < 1 {
		return nil, fmt.Errorf("anonymizer: k must be >= 1, got %d", k)
	}
	bctx, bsp := trace.StartChild(ctx, "anonymizer.build")
	defer bsp.End()
	csp := bsp.Child("core.cluster")
	clusters, _ := core.CentralizedTConnParallel(g, k, workers)
	csp.End()
	return New(bctx, g, k, clusters, g.NumVertices())
}

// Registry exposes the server's cluster registry (read-only use).
func (s *Server) Registry() *core.Registry { return s.reg }

// Cloak returns the cluster for host. cost is the number of messages
// this request is billed: the server's clustering cost for the first
// served cloak, zero for every other one, so under concurrent first
// requests exactly one caller is billed. A refused cloak is never
// billed. Cloak never blocks, so ctx is not consulted.
func (s *Server) Cloak(ctx context.Context, host int32) (cluster *core.Cluster, cost int, err error) {
	if int(host) < 0 || int(host) >= s.n {
		return nil, 0, fmt.Errorf("anonymizer: no such user %d", host)
	}
	c, ok := s.reg.ClusterOf(host)
	if !ok {
		return nil, 0, fmt.Errorf("%w: user %d is in a component smaller than k=%d",
			core.ErrInsufficientUsers, host, s.k)
	}
	if !s.billed.Load() && s.billed.CompareAndSwap(false, true) {
		cost = s.cost
	}
	return c, cost, nil
}
