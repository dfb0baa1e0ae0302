// Package workload builds the request workloads of Section VI: S distinct
// users, drawn deterministically, who invoke location cloaking. The
// hotspot and Zipf variants model skewed re-requesting populations for
// the robustness and contention experiments.
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
	"sort"
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

// samplePool draws k distinct ids uniformly from [0, n) by a partial
// Fisher-Yates shuffle: only the entries the first k swaps touch are
// materialized (in a sparse map), so a pool of n/100 costs O(k) time
// and space instead of the O(n) of a full rng.Perm(n).
func samplePool(rng *rand.Rand, n, k int) []int32 {
	displaced := make(map[int]int, k)
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[i]
		if !ok {
			vi = i
		}
		out[i] = int32(vj)
		displaced[j] = vi
	}
	return out
}

// hotspotPoolSize is the hot-pool sizing rule: 1% of the population,
// floored at one user.
func hotspotPoolSize(n int) int {
	p := n / 100
	if p < 1 {
		p = 1
	}
	return p
}

// HotspotHosts returns s user ids where a fraction hot of the requests is
// concentrated on a small pool of users (requests may repeat — modeling
// users who re-request and should hit the cluster cache). Used by
// robustness experiments; the paper's main workloads use Hosts.
//
// Cold requests are drawn from the complement of the pool, so the
// realized hot fraction is exactly Binomial(s, hot)/s — an earlier
// version drew cold requests from all of [0, n), silently inflating
// the hot fraction by (1-hot)·|pool|/n.
func HotspotHosts(n, s int, hot float64, seed int64) ([]int32, error) {
	if n <= 0 || s < 0 {
		return nil, fmt.Errorf("workload: bad sizes n=%d s=%d", n, s)
	}
	if hot < 0 || hot > 1 {
		return nil, fmt.Errorf("workload: hot fraction %v out of [0,1]", hot)
	}
	rng := rand.New(rand.NewSource(seed))
	poolSize := hotspotPoolSize(n)
	pool := samplePool(rng, n, poolSize)
	// Sorted copy for complement indexing: the c-th coldest id is c
	// shifted past every pool id at or below it.
	sorted := append([]int32(nil), pool...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	hosts := make([]int32, s)
	for i := range hosts {
		if rng.Float64() < hot || poolSize == n {
			hosts[i] = pool[rng.Intn(poolSize)]
			continue
		}
		c := int32(rng.Intn(n - poolSize))
		for _, p := range sorted {
			if p <= c {
				c++
			} else {
				break
			}
		}
		hosts[i] = c
	}
	return hosts, nil
}
