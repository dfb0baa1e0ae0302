package p2p

import (
	"fmt"

	"nonexposure/internal/core"
)

// This file is the transport fault model. The uniform Config.LossRate is
// the paper's original Section VII robustness knob; a FaultPlan layers the
// richer failure modes the simulation harness (internal/sim) needs:
// per-link loss, correlated loss bursts, node crashes, and network
// partitions. A Config with a nil FaultPlan and only LossRate set draws
// exactly one random number per transmission, in the same order as the
// original implementation, so Seed-equal runs stay bit-identical.

// Link identifies one directed transmission path.
type Link struct {
	From, To int32
}

// FaultPlan describes deterministic-under-Seed failure injection beyond
// the uniform LossRate. The zero value injects nothing. A plan must not be
// mutated while the network is in use.
type FaultPlan struct {
	// LinkLoss adds a per-directed-link loss probability on top of the
	// uniform LossRate; the two compose independently
	// (p = 1 − (1−LossRate)·(1−LinkLoss)). Values must lie in [0, 1).
	LinkLoss map[Link]float64

	// BurstProb is the probability that a randomly lost transmission
	// starts a loss burst: the next BurstLen transmissions on the wire
	// (any link) are dropped too, modeling correlated outages. Must lie
	// in [0, 1]; zero disables bursts.
	BurstProb float64
	// BurstLen is the number of forced consecutive losses per burst.
	BurstLen int

	// CrashAfter maps a node id to how many requests it answers before
	// crashing. 0 crashes the node pre-protocol; n > 0 crashes it
	// mid-protocol after its n-th answer. Transmissions to a crashed node
	// are black-holed (counted as lost) and never answered.
	CrashAfter map[int32]int

	// Groups assigns nodes to partition groups (default group 0). Any
	// transmission whose endpoints are in different groups is dropped:
	// a network partition.
	Groups map[int32]int
}

// validate rejects out-of-range fault parameters.
func (f *FaultPlan) validate() error {
	for l, p := range f.LinkLoss {
		if p < 0 || p >= 1 {
			return fmt.Errorf("p2p: link %d->%d loss rate %v out of [0,1)", l.From, l.To, p)
		}
	}
	if f.BurstProb < 0 || f.BurstProb > 1 {
		return fmt.Errorf("p2p: burst probability %v out of [0,1]", f.BurstProb)
	}
	if f.BurstLen < 0 {
		return fmt.Errorf("p2p: burst length %d < 0", f.BurstLen)
	}
	for v, n := range f.CrashAfter {
		if n < 0 {
			return fmt.Errorf("p2p: node %d crash budget %d < 0", v, n)
		}
	}
	return nil
}

// group returns the partition group of v (0 when unassigned).
func (f *FaultPlan) group(v int32) int {
	if f == nil || f.Groups == nil {
		return 0
	}
	return f.Groups[v]
}

// DropReason classifies why a transmission was (or was not) dropped.
type DropReason uint8

// Drop reasons, in the order they are evaluated.
const (
	// DropNone: the transmission was delivered.
	DropNone DropReason = iota
	// DropPartition: the endpoints are in different partition groups.
	DropPartition
	// DropCrash: the target node has crashed.
	DropCrash
	// DropBurst: the wire is inside a correlated loss burst.
	DropBurst
	// DropRandom: independent random loss (uniform or per-link rate).
	DropRandom
)

// String implements fmt.Stringer.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "delivered"
	case DropPartition:
		return "lost:partition"
	case DropCrash:
		return "lost:crash"
	case DropBurst:
		return "lost:burst"
	case DropRandom:
		return "lost:random"
	default:
		return fmt.Sprintf("lost:unknown(%d)", uint8(d))
	}
}

// TraceEvent describes one transmission put on the wire. Reply is false
// for the request leg and true for the reply leg of an exchange. Dir,
// Bound, and Agree are only meaningful for bound-probe traffic.
type TraceEvent struct {
	From, To int32
	Kind     Kind
	Reply    bool
	// Attempt is the 0-based retry index of the exchange this
	// transmission belongs to.
	Attempt int
	Reason  DropReason
	Dir     core.Direction
	Bound   float64
	Agree   bool
}

// dropTx decides the fate of one transmission from `from` to `to`.
// isReply marks the reply leg (crash only gates the request leg: a node
// alive when it served the request has already emitted its reply). All
// random draws happen under n.mu, so a single-threaded driver observes a
// deterministic sequence for a fixed Seed.
func (n *Network) dropTx(from, to int32, isReply bool) DropReason {
	f := n.cfg.Faults
	if f != nil {
		if f.group(from) != f.group(to) {
			return DropPartition
		}
		if !isReply && n.crashed(to) {
			return DropCrash
		}
	}
	p := n.cfg.LossRate
	if f == nil {
		if p == 0 {
			return DropNone
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.rng.Float64() < p {
			return DropRandom
		}
		return DropNone
	}
	if lp, ok := f.LinkLoss[Link{From: from, To: to}]; ok {
		p = 1 - (1-p)*(1-lp)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.burstLeft > 0 {
		n.burstLeft--
		return DropBurst
	}
	if p == 0 {
		return DropNone
	}
	if n.rng.Float64() >= p {
		return DropNone
	}
	if f.BurstProb > 0 && f.BurstLen > 0 && n.rng.Float64() < f.BurstProb {
		n.burstLeft = f.BurstLen
	}
	return DropRandom
}

// crashed reports whether node v has exhausted its answer budget.
func (n *Network) crashed(v int32) bool {
	limit, ok := n.cfg.Faults.CrashAfter[v]
	if !ok {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.served[v] >= limit
}

// recordServed counts one answered request for v (crash accounting).
func (n *Network) recordServed(v int32) {
	if n.cfg.Faults == nil || n.cfg.Faults.CrashAfter == nil {
		return
	}
	n.mu.Lock()
	n.served[v]++
	n.mu.Unlock()
}

// trace emits one TraceEvent if the network has a trace hook.
func (n *Network) trace(from, to int32, kind Kind, reply bool, attempt int, reason DropReason, dir core.Direction, bound float64, agree bool) {
	if n.cfg.Trace == nil {
		return
	}
	n.cfg.Trace(TraceEvent{
		From: from, To: to, Kind: kind, Reply: reply,
		Attempt: attempt, Reason: reason,
		Dir: dir, Bound: bound, Agree: agree,
	})
}
