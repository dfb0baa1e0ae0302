// Package cloak is the public API of the non-exposure location-anonymity
// library (Hu & Xu, "Non-Exposure Location Anonymity", ICDE 2009).
//
// It cloaks a user's location into a rectangle that (a) contains at least
// K users and (b) was computed without any party — peer, anonymizer, or
// server — ever learning an accurate user location. Cloaking runs in two
// phases:
//
//  1. Proximity minimum k-clustering over the weighted proximity graph
//     (WPG) built from relative signal-strength ranks: the host is grouped
//     with at least K-1 peers, preserving reciprocity and
//     cluster-isolation.
//  2. Secure bounding: the cluster's bounding rectangle is found by a
//     progressive hypothesis–verification protocol in which every member
//     only ever answers "is my coordinate below this bound?".
//
// A System simulates a full deployment: it builds the WPG from the true
// device positions (standing in for physical RSS measurements), then runs
// the protocols exactly as deployed devices would — the clustering and
// bounding logic never reads positions directly.
//
// The zero-dependency simulation substrate (datasets, RSS models, message
// passing, LBS query processing, experiment harness) lives under
// internal/; see DESIGN.md for the map.
package cloak

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nonexposure/internal/anonymizer"
	"nonexposure/internal/core"
	"nonexposure/internal/geo"
	"nonexposure/internal/p2p"
	"nonexposure/internal/rss"
	"nonexposure/internal/trace"
	"nonexposure/internal/wpg"
)

// Point is a user location in the (normalized) unit square.
type Point struct {
	X, Y float64
}

// Region is a cloaked axis-aligned rectangle.
type Region struct {
	MinX, MinY, MaxX, MaxY float64
}

// Area returns the region's area.
func (r Region) Area() float64 {
	w := r.MaxX - r.MinX
	h := r.MaxY - r.MinY
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

// Contains reports whether p lies inside the region (borders included).
func (r Region) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Mode selects where phase-1 clustering runs.
type Mode int

// Clustering modes.
const (
	// ModeDistributed runs Algorithm 2 at the host via peer-to-peer
	// information gathering (the paper's headline configuration).
	ModeDistributed Mode = iota
	// ModeCentralized delegates clustering to an anonymizer that holds
	// all users' proximity lists (never their coordinates) and clusters
	// the whole graph once.
	ModeCentralized
)

// BoundAlgorithm selects the phase-2 bounding policy.
type BoundAlgorithm int

// Bounding algorithms (Section VI-D).
const (
	// BoundSecure uses the paper's cost-optimal N-bounding increments.
	BoundSecure BoundAlgorithm = iota
	// BoundLinear grows the bound by a fixed step each round.
	BoundLinear
	// BoundExponential doubles the bound each round.
	BoundExponential
	// BoundOptimal reveals exact coordinates (tightest region, no
	// privacy) — the benchmark, not a deployment choice.
	BoundOptimal
)

// ErrNotEnoughUsers is returned when the host cannot gather K users.
var ErrNotEnoughUsers = errors.New("cloak: not enough reachable users for k-anonymity")

// Config tunes a System. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// K is the anonymity level: every cloaked region covers >= K users.
	K int
	// Delta is the radio range: peers farther apart cannot measure each
	// other.
	Delta float64
	// MaxPeers caps each device's peer list (the paper's M).
	MaxPeers int
	// Mode selects distributed or centralized clustering.
	Mode Mode
	// Bound selects the phase-2 algorithm.
	Bound BoundAlgorithm
	// Cb is the cost of one bound-verification message; Cr the relative
	// cost of one POI of request payload. They parameterize the secure
	// policy's optimal increments.
	Cb, Cr float64
	// LinearStep and ExpInit tune the baseline policies (normalized to
	// the cluster extent estimate).
	LinearStep, ExpInit float64
	// MinArea, when positive, additionally enforces the granularity
	// metric (Casper): a cloaked region smaller than MinArea is inflated
	// around its center (clamped to the unit square) until it satisfies
	// the threshold. Zero disables it.
	MinArea float64
}

// DefaultConfig returns the paper's Table I settings.
func DefaultConfig() Config {
	return Config{
		K:          10,
		Delta:      2e-3,
		MaxPeers:   10,
		Mode:       ModeDistributed,
		Bound:      BoundSecure,
		Cb:         1,
		Cr:         1000,
		LinearStep: 0.05,
		ExpInit:    0.25,
	}
}

// Result reports one cloaking request.
type Result struct {
	// Region is the cloaked region to attach to service requests. It
	// contains the host and at least K-1 other users.
	Region Region
	// ClusterSize is the number of users sharing this region.
	ClusterSize int
	// ClusterComm is the phase-1 communication cost in messages (0 when
	// the cluster was cached from an earlier request).
	ClusterComm int
	// BoundMessages is the phase-2 verification cost (0 when the region
	// was cached).
	BoundMessages float64
	// BoundRounds is the number of hypothesis–verification iterations.
	BoundRounds int
	// CachedCluster and CachedRegion report which phases were skipped
	// because an earlier request already paid for them.
	CachedCluster bool
	CachedRegion  bool
}

// System is a simulated deployment of the non-exposure cloaking scheme
// over a fixed population of users. It is safe for concurrent use:
// cloaking requests are serialized (the paper's Section VII concurrency
// control) so clusters never overlap and no deadlock can occur.
type System struct {
	cfg Config
	pts []geo.Point
	g   *wpg.Graph
	net *p2p.Network // set by NewNetworkSystem: both phases run over it

	mu      sync.Mutex
	reg     *core.Registry
	anon    *anonymizer.Server    // ModeCentralized, built by the first request
	regions map[int32]regionEntry // cluster ID -> bounded region
}

type regionEntry struct {
	region Region
	rounds int
}

// NewSystem builds a deployment over the given user positions. Positions
// should be normalized to the unit square (see Config.Delta, which is
// expressed in those units).
func NewSystem(users []Point, cfg Config) (*System, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("cloak: K must be >= 1, got %d", cfg.K)
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("cloak: Delta must be positive, got %v", cfg.Delta)
	}
	if cfg.Cb <= 0 || cfg.Cr <= 0 {
		return nil, fmt.Errorf("cloak: Cb and Cr must be positive, got %v / %v", cfg.Cb, cfg.Cr)
	}
	if len(users) < cfg.K {
		return nil, fmt.Errorf("cloak: %d users cannot satisfy K=%d", len(users), cfg.K)
	}
	pts := make([]geo.Point, len(users))
	for i, u := range users {
		pts[i] = geo.Point{X: u.X, Y: u.Y}
	}
	g := wpg.Build(pts, wpg.BuildParams{
		Delta:    cfg.Delta,
		MaxPeers: cfg.MaxPeers,
		Model:    rss.InverseModel{},
	})
	s := &System{
		cfg:     cfg,
		pts:     pts,
		g:       g,
		reg:     core.NewRegistry(len(pts)),
		regions: make(map[int32]regionEntry),
	}
	return s, nil
}

// NumUsers returns the population size.
func (s *System) NumUsers() int { return len(s.pts) }

// AvgDegree returns the average vertex degree of the underlying proximity
// graph — the paper's topology-density metric.
func (s *System) AvgDegree() float64 { return s.g.Stats().AvgDegree }

// K returns the configured anonymity level.
func (s *System) K() int { return s.cfg.K }

// Cloak obtains the cloaked region for the given user, running whichever
// of the two phases is not already cached. It is the entry point a device
// calls right before issuing a location-based service request.
func (s *System) Cloak(host int) (Result, error) {
	return s.CloakCtx(context.Background(), host)
}

// CloakCtx is Cloak with a caller-supplied context. When ctx carries a
// trace span (internal/trace), the clustering and secure-bounding phases
// report as child spans of it.
func (s *System) CloakCtx(ctx context.Context, host int) (Result, error) {
	if host < 0 || host >= len(s.pts) {
		return Result{}, fmt.Errorf("cloak: no such user %d", host)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	var res Result

	// Phase 1: k-clustering.
	var cluster *core.Cluster
	switch s.cfg.Mode {
	case ModeCentralized:
		// The anonymizer is built on the first centralized request; the
		// mutex above serializes that build with every other request.
		if s.anon == nil {
			anon, err := anonymizer.Build(ctx, s.g, s.cfg.K, 0)
			if err != nil {
				return Result{}, err
			}
			s.anon, s.reg = anon, anon.Registry()
		}
		c, cost, err := s.anon.Cloak(ctx, int32(host))
		if err != nil {
			return Result{}, translateErr(err)
		}
		cluster = c
		res.ClusterComm = cost
		res.CachedCluster = cost == 0
	default:
		csp := trace.FromContext(ctx).Child("core.cluster")
		c, stats, err := s.distributedTConn(int32(host))
		csp.End()
		if err != nil {
			return Result{}, translateErr(err)
		}
		cluster = c
		res.ClusterComm = stats.Involved
		res.CachedCluster = stats.Cached
	}
	res.ClusterSize = cluster.Size()

	// Phase 2: secure bounding (cached per cluster — the region is shared
	// by every member, which is what makes the host indistinguishable).
	if entry, ok := s.regions[cluster.ID]; ok {
		res.Region = entry.region
		res.BoundRounds = entry.rounds
		res.CachedRegion = true
		return res, nil
	}
	bound, err := s.boundCtx(ctx, cluster, int32(host))
	if err != nil {
		return Result{}, err
	}
	region := s.cfg.applyGranularity(Region{
		MinX: bound.Rect.Min.X, MinY: bound.Rect.Min.Y,
		MaxX: bound.Rect.Max.X, MaxY: bound.Rect.Max.Y,
	})
	s.regions[cluster.ID] = regionEntry{region: region, rounds: bound.Rounds}
	res.Region = region
	res.BoundMessages = bound.Messages
	res.BoundRounds = bound.Rounds
	return res, nil
}

// applyGranularity inflates a region around its center until it meets the
// MinArea threshold, clamped to the unit square (inflating further along
// the unclamped axis when a border is hit).
func (c Config) applyGranularity(r Region) Region {
	if c.MinArea <= 0 || r.Area() >= c.MinArea {
		return r
	}
	for i := 0; i < 64 && r.Area() < c.MinArea; i++ {
		w := r.MaxX - r.MinX
		h := r.MaxY - r.MinY
		// Grow both axes by 30% plus an absolute floor for degenerate
		// regions.
		dx := 0.15*w + 1e-4
		dy := 0.15*h + 1e-4
		r.MinX, r.MaxX = clamp01(r.MinX-dx), clamp01(r.MaxX+dx)
		r.MinY, r.MaxY = clamp01(r.MinY-dy), clamp01(r.MaxY+dy)
		if r.MinX == 0 && r.MaxX == 1 && r.MinY == 0 && r.MaxY == 1 {
			break // cannot grow past the whole world
		}
	}
	return r
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func (s *System) boundCtx(ctx context.Context, cluster *core.Cluster, host int32) (core.RectBoundResult, error) {
	if s.cfg.Bound == BoundOptimal {
		sp := trace.FromContext(ctx).Child("core.bound.optimal")
		defer sp.End()
		return core.OptimalRect(s.pts, cluster.Members, s.cfg.Cb)
	}
	var pol core.IncrementPolicy
	switch s.cfg.Bound {
	case BoundLinear:
		pol = core.LinearIncrement{Step: s.cfg.LinearStep}
	case BoundExponential:
		pol = core.ExpIncrement{Init: s.cfg.ExpInit}
	case BoundSecure:
		pol = core.NewSecureIncrementForCluster(s.cfg.Cb, s.cfg.Cr, cluster.Size())
	default:
		return core.RectBoundResult{}, fmt.Errorf("cloak: unknown bounding algorithm %d", s.cfg.Bound)
	}
	scale := core.DefaultRectScale(cluster.Size(), len(s.pts))
	if s.net == nil {
		return core.BoundRectCtx(ctx, s.pts, cluster.Members, s.pts[host], scale, pol, s.cfg.Cb)
	}
	bound, err := s.net.BoundRect(host, cluster.Members, scale, pol, s.cfg.Cb)
	if err != nil {
		// Transport degradation: the region may be looser but remains
		// valid for reachable members; surface the error.
		return core.RectBoundResult{}, fmt.Errorf("cloak: bounding over network: %w", err)
	}
	return bound, nil
}

// distributedTConn runs phase-1 clustering at the host: over the message
// network when the system has one, else over the proximity graph.
func (s *System) distributedTConn(host int32) (*core.Cluster, core.DistStats, error) {
	if s.net != nil {
		return s.net.DistributedTConn(host, s.cfg.K, s.reg)
	}
	return core.DistributedTConn(core.GraphSource{G: s.g}, host, s.cfg.K, s.reg)
}

// ClusterOf returns the ids of the users sharing host's cluster, or nil
// when host has not been cloaked yet.
func (s *System) ClusterOf(host int) []int32 {
	if host < 0 || host >= len(s.pts) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.reg.ClusterOf(int32(host))
	if !ok {
		return nil
	}
	return append([]int32(nil), c.Members...)
}

func translateErr(err error) error {
	if errors.Is(err, core.ErrInsufficientUsers) {
		return fmt.Errorf("%w: %v", ErrNotEnoughUsers, err)
	}
	return err
}
