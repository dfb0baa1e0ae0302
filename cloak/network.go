package cloak

import (
	"errors"
	"fmt"

	"nonexposure/internal/p2p"
)

// NetworkConfig enables running the distributed protocols over a
// simulated peer-to-peer message network (one goroutine per device)
// instead of in-process calls. Results are identical on a lossless
// network; with loss injection, requests are retried and the run degrades
// gracefully — the paper's Section VII robustness concern.
type NetworkConfig struct {
	// LossRate is the probability that any single transmission is lost
	// (0 disables injection; must be < 1).
	LossRate float64
	// MaxRetries bounds the retries per request after losses.
	MaxRetries int
	// Seed makes loss injection deterministic.
	Seed int64
}

// NetworkSystem is a System whose phase-1 and phase-2 protocols run over
// simulated peer-to-peer messages: its Cloak and CloakCtx are System's,
// which take both phases from the network. Create with NewNetworkSystem
// and Close when done (it owns one goroutine per user).
type NetworkSystem struct {
	*System
}

// NewNetworkSystem builds a message-passing deployment. Only
// ModeDistributed is meaningful here (an anonymizer would not use p2p
// messages), so cfg.Mode is forced to ModeDistributed. BoundOptimal is
// rejected: it needs every member's coordinates, and the network never
// carries them.
func NewNetworkSystem(users []Point, cfg Config, ncfg NetworkConfig) (*NetworkSystem, error) {
	if cfg.Bound == BoundOptimal {
		return nil, errors.New("cloak: BoundOptimal exposes coordinates, which the message network never carries")
	}
	cfg.Mode = ModeDistributed
	sys, err := NewSystem(users, cfg)
	if err != nil {
		return nil, err
	}
	sys.net, err = p2p.NewNetwork(sys.g, sys.pts, p2p.Config{
		LossRate:   ncfg.LossRate,
		MaxRetries: ncfg.MaxRetries,
		Seed:       ncfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("cloak: %w", err)
	}
	return &NetworkSystem{System: sys}, nil
}

// Close stops the per-device goroutines.
func (ns *NetworkSystem) Close() { ns.net.Close() }

// MessagesSent returns the total transmissions put on the simulated wire
// (including retries and lost messages).
func (ns *NetworkSystem) MessagesSent() uint64 { return ns.net.Sent() }

// MessagesLost returns how many transmissions the loss injection dropped.
func (ns *NetworkSystem) MessagesLost() uint64 { return ns.net.Lost() }
