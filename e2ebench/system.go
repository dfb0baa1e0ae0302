package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"nonexposure/internal/cluster"
	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// numShards is the shard count of the system under test.
const numShards = 2

// system is the shipped stack on loopback: two shards, each a
// service.Server with its own epoch metrics, behind one coordinator
// listening for clients. Every option not set here keeps its default.
type system struct {
	shards     []*service.Server
	shardAddrs []string
	ems        []*metrics.EpochMetrics
	coord      *cluster.Coordinator
	cm         *metrics.ClusterMetrics
	addr       string
	cancel     context.CancelFunc
}

// startSystem starts the shards, then the coordinator in front of them.
func startSystem(in *inputs) (*system, error) {
	ctx, cancel := context.WithCancel(context.Background())
	sys := &system{cancel: cancel, cm: metrics.NewClusterMetrics()}
	for i := 0; i < numShards; i++ {
		em := metrics.NewEpochMetrics()
		srv, err := service.New(service.WithNumUsers(in.n), service.WithK(in.k), service.WithMetrics(em))
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.shards = append(sys.shards, srv)
		sys.ems = append(sys.ems, em)
		addr, err := srv.Listen(ctx, "127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.shardAddrs = append(sys.shardAddrs, addr.String())
	}
	coord, err := cluster.New(
		cluster.WithNumUsers(in.n),
		cluster.WithK(in.k),
		cluster.WithShardAddrs(sys.shardAddrs...),
		cluster.WithKeys(in.keys),
		cluster.WithClusterMetrics(sys.cm),
	)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.coord = coord
	addr, err := coord.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.addr = addr.String()
	return sys, nil
}

// close stops the coordinator, then the shards. Callers close their
// client connections first: the coordinator waits for its connection
// handlers to return.
func (s *system) close() {
	if s.coord != nil {
		_ = s.coord.Close() // shutdown of a finished run; nothing left to report
	}
	for _, srv := range s.shards {
		_ = srv.Close()
	}
	s.cancel()
}

// dial opens a client connection to the coordinator.
func (s *system) dial() (*service.Client, error) {
	return service.Dial(s.addr, service.WithOpTimeout(30*time.Second))
}

// home returns the shard whose current epoch serves host, or -1 when
// no shard serves it (a user in a component smaller than k).
func (s *system) home(ctx context.Context, host int32) int {
	for i, srv := range s.shards {
		if _, err := srv.Manager().Cloak(ctx, host); err == nil {
			return i
		}
	}
	return -1
}

// isRefusal reports whether err is the correct answer for a host in a
// component smaller than its anonymity floor.
func isRefusal(err error) bool {
	return err != nil && strings.Contains(err.Error(), "smaller than k")
}

// checkAnswer verifies one served cloak in a population of n users: the
// cluster must name distinct users in [0, n), contain its host, and have
// at least floor members (and at least the effective k the server claims
// for it).
func checkAnswer(n int, host int32, members []int32, floor, effK int) error {
	if effK > floor {
		floor = effK
	}
	hasHost := false
	for i, m := range members {
		if m < 0 || int(m) >= n {
			return fmt.Errorf("cloak %d: cluster names user %d, outside [0, %d)", host, m, n)
		}
		if slices.Contains(members[:i], m) {
			return fmt.Errorf("cloak %d: cluster names user %d twice", host, m)
		}
		hasHost = hasHost || m == host
	}
	if len(members) < floor {
		return fmt.Errorf("cloak %d: cluster of %d members, want at least %d", host, len(members), floor)
	}
	if !hasHost {
		return fmt.Errorf("cloak %d: cluster %v does not contain its host", host, members)
	}
	return nil
}
