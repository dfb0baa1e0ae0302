// Package p2p simulates the point-to-point wireless message exchange the
// paper's distributed protocols run over: every user is a goroutine with
// an inbox, and a host performs the clustering and bounding protocols
// purely through request/reply messages.
//
// The package exists to demonstrate (and test) that the algorithms in
// internal/core run unchanged over real message passing — and to model
// the paper's Section VII robustness concern: messages can be lost, and
// requests are retried a bounded number of times. The host-side logic is
// core's: phase 1 is core.DistributedTConn over a NetSource, and phase 2
// is core.BoundRectVotes with a probe per vote, answered by the node
// with core.Direction's Offset of its private location.
package p2p

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"nonexposure/internal/core"
	"nonexposure/internal/geo"
	"nonexposure/internal/wpg"
)

// Kind enumerates protocol message types.
type Kind uint8

// Message kinds: a peer answers adjacency requests with its proximity
// list (phase 1) and bound probes with agree/disagree votes (phase 2).
const (
	KindAdjRequest Kind = iota
	KindAdjReply
	KindBoundProbe
	KindBoundVote
)

// Message is one protocol message. Reply channels make request/reply
// pairing explicit without any global dispatcher.
type Message struct {
	From, To int32
	Kind     Kind

	// Adjacency payload (KindAdjReply).
	Adjacency []wpg.Edge

	// Bound-probe payload (KindBoundProbe / KindBoundVote).
	Dir    core.Direction
	Anchor geo.Point
	Bound  float64
	Agree  bool

	reply chan Message
}

// Config tunes the simulated transport.
type Config struct {
	// LossRate is the probability that any single transmission (request
	// or reply) is lost. 0 disables failure injection.
	LossRate float64
	// MaxRetries is how many times a request is retried after a loss
	// before the peer is declared unreachable.
	MaxRetries int
	// Seed makes loss injection deterministic.
	Seed int64
	// InboxSize is the per-node inbox buffer (default 16).
	InboxSize int
	// Faults optionally layers the richer fault model (per-link loss,
	// bursts, crashes, partitions) on top of LossRate. Nil keeps the
	// uniform model, bit-identical to Seed-equal runs of the original
	// transport.
	Faults *FaultPlan
	// Trace, when non-nil, receives one event per transmission put on
	// the wire (delivered or dropped), in wire order. The callback runs
	// on the requester's goroutine; it must not call back into the
	// network.
	Trace func(TraceEvent)
}

// ErrUnreachable is returned when a peer did not answer within the retry
// budget.
var ErrUnreachable = errors.New("p2p: peer unreachable after retries")

// Network owns the node goroutines and the (lossy) wire.
type Network struct {
	cfg   Config
	nodes []*node

	mu        sync.Mutex // guards rng, burstLeft, served
	rng       *rand.Rand
	burstLeft int           // forced losses remaining in the current burst
	served    map[int32]int // answered requests per node (crash accounting)

	sent       atomic.Uint64 // transmissions put on the wire, retries included
	delivered  atomic.Uint64 // transmissions that survived injection
	lost       atomic.Uint64 // transmissions dropped by injection
	roundTrips atomic.Uint64 // completed request/reply exchanges

	closed chan struct{}
	wg     sync.WaitGroup
}

type node struct {
	id  int32
	adj []wpg.Edge
	loc geo.Point

	inbox chan Message
}

// NewNetwork spawns one goroutine per user. g supplies each node's
// proximity list; locs each node's private location (used only inside the
// node's own vote handler — it never leaves the node).
func NewNetwork(g *wpg.Graph, locs []geo.Point, cfg Config) (*Network, error) {
	if g.NumVertices() != len(locs) {
		return nil, fmt.Errorf("p2p: %d graph vertices but %d locations", g.NumVertices(), len(locs))
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		if cfg.LossRate != 0 {
			return nil, fmt.Errorf("p2p: loss rate %v out of [0,1)", cfg.LossRate)
		}
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 16
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(); err != nil {
			return nil, err
		}
	}
	n := &Network{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		served: make(map[int32]int),
		closed: make(chan struct{}),
	}
	n.nodes = make([]*node, g.NumVertices())
	for i := range n.nodes {
		nd := &node{
			id:    int32(i),
			adj:   g.Neighbors(int32(i)),
			loc:   locs[i],
			inbox: make(chan Message, cfg.InboxSize),
		}
		n.nodes[i] = nd
		n.wg.Add(1)
		go n.serve(nd)
	}
	return n, nil
}

// Close stops all node goroutines. The network must not be used after.
func (n *Network) Close() {
	close(n.closed)
	n.wg.Wait()
}

// NumUsers returns the number of nodes.
func (n *Network) NumUsers() int { return len(n.nodes) }

// Sent returns total transmissions attempted (requests + replies,
// including lost ones and retries).
func (n *Network) Sent() uint64 { return n.sent.Load() }

// Delivered returns transmissions that survived failure injection. The
// wire accounting always balances: Sent() == Delivered() + Lost().
func (n *Network) Delivered() uint64 { return n.delivered.Load() }

// Lost returns transmissions dropped by failure injection.
func (n *Network) Lost() uint64 { return n.lost.Load() }

// RoundTrips returns completed request/reply exchanges — the logical
// message cost the paper counts.
func (n *Network) RoundTrips() uint64 { return n.roundTrips.Load() }

// serve is the per-node goroutine: answer every request with a reply into
// the request's reply channel.
func (n *Network) serve(nd *node) {
	defer n.wg.Done()
	for {
		select {
		case <-n.closed:
			return
		case msg := <-nd.inbox:
			var rep Message
			switch msg.Kind {
			case KindAdjRequest:
				rep = Message{
					From: nd.id, To: msg.From, Kind: KindAdjReply,
					Adjacency: nd.adj,
				}
			case KindBoundProbe:
				rep = Message{
					From: nd.id, To: msg.From, Kind: KindBoundVote,
					Dir: msg.Dir, Bound: msg.Bound,
					Agree: msg.Dir.Offset(nd.loc, msg.Anchor) <= msg.Bound,
				}
			default:
				rep = Message{From: nd.id, To: msg.From}
			}
			msg.reply <- rep
		}
	}
}

// Request performs one request/reply exchange with retries. Every
// transmission (request or reply) can be lost independently (randomly,
// by burst, by partition, or because the peer crashed); a lost
// transmission consumes one retry.
func (n *Network) Request(to int32, msg Message) (Message, error) {
	if int(to) < 0 || int(to) >= len(n.nodes) {
		return Message{}, fmt.Errorf("p2p: no such node %d", to)
	}
	nd := n.nodes[to]
	for attempt := 0; attempt <= n.cfg.MaxRetries; attempt++ {
		n.sent.Add(1)
		if reason := n.dropTx(msg.From, to, false); reason != DropNone {
			n.lost.Add(1)
			n.trace(msg.From, to, msg.Kind, false, attempt, reason, msg.Dir, msg.Bound, false)
			continue // request lost in flight
		}
		n.delivered.Add(1)
		n.trace(msg.From, to, msg.Kind, false, attempt, DropNone, msg.Dir, msg.Bound, false)
		m := msg
		m.To = to
		m.reply = make(chan Message, 1)
		select {
		case nd.inbox <- m:
		case <-n.closed:
			return Message{}, errors.New("p2p: network closed")
		}
		var rep Message
		select {
		case rep = <-m.reply:
		case <-n.closed:
			// The node goroutine may have exited with our request still
			// queued; don't deadlock on a reply that will never come.
			return Message{}, errors.New("p2p: network closed")
		}
		n.recordServed(to)
		n.sent.Add(1)
		if reason := n.dropTx(to, msg.From, true); reason != DropNone {
			n.lost.Add(1)
			n.trace(to, msg.From, rep.Kind, true, attempt, reason, rep.Dir, rep.Bound, rep.Agree)
			continue // reply lost in flight
		}
		n.delivered.Add(1)
		n.trace(to, msg.From, rep.Kind, true, attempt, DropNone, rep.Dir, rep.Bound, rep.Agree)
		n.roundTrips.Add(1)
		return rep, nil
	}
	return Message{}, fmt.Errorf("%w: node %d", ErrUnreachable, to)
}

// Source returns a core.AdjacencySource backed by network messages: each
// distinct adjacency fetch is one round trip to the peer. The host's own
// adjacency is read locally. Transport failures are recorded and surfaced
// via Err; the affected peer contributes an empty adjacency so the
// protocol can degrade instead of deadlocking.
func (n *Network) Source(host int32) *NetSource {
	return &NetSource{net: n, host: host}
}

// NetSource adapts the network to core.AdjacencySource.
type NetSource struct {
	net  *Network
	host int32
	err  error
}

// Adjacency implements core.AdjacencySource.
func (s *NetSource) Adjacency(v int32) []wpg.Edge {
	if v == s.host {
		return s.net.nodes[s.host].adj
	}
	rep, err := s.net.Request(v, Message{From: s.host, Kind: KindAdjRequest})
	if err != nil {
		s.err = errors.Join(s.err, err)
		return nil
	}
	return rep.Adjacency
}

// NumUsers implements core.AdjacencySource.
func (s *NetSource) NumUsers() int { return s.net.NumUsers() }

// Err reports every transport failure seen by Adjacency, joined with
// errors.Join (nil when all fetches succeeded). errors.Is(err,
// ErrUnreachable) matches when any peer was unreachable.
func (s *NetSource) Err() error { return s.err }

// DistributedTConn runs the phase-1 distributed clustering entirely over
// the network.
func (n *Network) DistributedTConn(host int32, k int, reg *core.Registry) (*core.Cluster, core.DistStats, error) {
	src := n.Source(host)
	c, stats, err := core.DistributedTConn(src, host, k, reg)
	if err != nil {
		return nil, stats, err
	}
	if src.Err() != nil {
		return c, stats, src.Err()
	}
	return c, stats, nil
}

// BoundRect runs the phase-2 secure bounding protocol over the network:
// core.BoundRectVotes with one bound-probe round trip per disagreeing
// member per round, anchored at the host's own (local, private)
// location, where the host votes without a message. Unreachable members
// are treated as agreeing so the protocol terminates; the returned result
// records them in Degraded (the rectangle is not guaranteed to contain
// them) and the error reports the degradation.
func (n *Network) BoundRect(host int32, members []int32, scale float64, pol core.IncrementPolicy, cb float64) (core.RectBoundResult, error) {
	if int(host) < 0 || int(host) >= len(n.nodes) {
		return core.RectBoundResult{}, fmt.Errorf("p2p: no such host %d", host)
	}
	anchor := n.nodes[host].loc
	var transportErr error
	var degraded []int32
	res, err := core.BoundRectVotes(context.Background(), len(members), anchor, scale, pol, cb, func(dir core.Direction) core.AgreeFunc {
		return func(i int, bound float64) bool {
			m := members[i]
			if m == host {
				return dir.Offset(anchor, anchor) <= bound
			}
			rep, err := n.Request(m, Message{
				From: host, Kind: KindBoundProbe,
				Dir: dir, Anchor: anchor, Bound: bound,
			})
			if err != nil {
				transportErr = errors.Join(transportErr, err)
				degraded = append(degraded, m)
				return true // unreachable: assume agreement, surface the error
			}
			return rep.Agree
		}
	})
	if err != nil {
		return core.RectBoundResult{}, fmt.Errorf("p2p: %w", err)
	}
	slices.Sort(degraded)
	res.Degraded = slices.Compact(degraded)
	return res, transportErr
}
