// Package workload builds the request workloads of Section VI: S distinct
// users, drawn deterministically, who invoke location cloaking. The Zipf
// variant models a skewed re-requesting population for the contention
// experiments.
//
// It also holds the phases of the churn workload that the experiment
// grid (internal/bench), cloaksim and cloakd -demo share: the mobile
// Population with its churn Tick, the Peers a device uploads, and the
// Replay of a request stream split across concurrent clients, whose
// Tally is the one place a sub-k refusal is told from a hard failure.
package workload

import (
	"fmt"
	"math/rand"
)

// Hosts returns s distinct user ids sampled uniformly without replacement
// from [0, n), in request order, deterministically from seed.
func Hosts(n, s int, seed int64) ([]int32, error) {
	if s < 0 || n < 0 {
		return nil, fmt.Errorf("workload: negative sizes n=%d s=%d", n, s)
	}
	if s > n {
		return nil, fmt.Errorf("workload: cannot draw %d distinct hosts from %d users", s, n)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	hosts := make([]int32, s)
	for i := 0; i < s; i++ {
		hosts[i] = int32(perm[i])
	}
	return hosts, nil
}
