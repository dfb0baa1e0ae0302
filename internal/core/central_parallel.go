package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"nonexposure/internal/trace"
	"nonexposure/internal/wpg"
)

// CentralizedTConnParallel is CentralizedTConn fanned out across the
// connected components of the WPG with a bounded worker pool. Safe
// removal never crosses a component boundary, so each component can be
// partitioned independently; the wall-clock cost of whole-graph
// clustering drops to roughly the largest component on multi-core.
//
// workers <= 0 selects GOMAXPROCS. The result is deterministic and
// identical to the serial algorithm: each component is clustered as an
// ascending vertex list (see ClusterComponentProfiled), so (W, U, V)
// ties break as in the whole graph, and MergeClusters restores the
// serial scan's emission order and numbering.
func CentralizedTConnParallel(g *wpg.Graph, k, workers int) (clusters []*Cluster, undersized [][]int32) {
	return CentralizedTConnParallelProfiled(g, k, nil, workers)
}

// CentralizedTConnParallelProfiled is CentralizedTConnParallel with
// per-vertex anonymity floors (see CentralizedTConnProfiled). ks is
// indexed by global vertex id; nil means uniform k.
func CentralizedTConnParallelProfiled(g *wpg.Graph, k int, ks []int32, workers int) (clusters []*Cluster, undersized [][]int32) {
	if k < 1 {
		panic(fmt.Sprintf("core: k must be >= 1, got %d", k))
	}
	members := g.Components()
	comps := make([]Component, len(members))
	todo := make([]int, len(members))
	for i, ms := range members {
		comps[i].Members = ms
		todo[i] = i
	}
	ClusterComponents(context.TODO(), g, comps, todo, k, ks, workers)
	// Safe removal only ever splits a group into valid ones, so an
	// undersized group is always a whole component, and component order
	// is already the serial scan's order for them.
	for _, c := range comps {
		undersized = append(undersized, c.Undersized...)
	}
	return MergeClusters(comps), undersized
}

// Component is one connected component of a WPG and its clustering:
// Members sorted ascending, and the clusters and undersized groups
// ClusterComponentProfiled returns for them, in global vertex ids.
type Component struct {
	Members    []int32
	Clusters   []*Cluster
	Undersized [][]int32
}

// ClusterComponents is the one component worker pool. It runs
// ClusterComponentProfiled on comps[i] for every i in todo, on workers
// goroutines (<= 0 selects GOMAXPROCS; never more than len(todo)), and
// stores each result in comps[i].Clusters and Undersized. Entries not
// in todo are left as they are, which is how the epoch build keeps the
// clustering of every component that did not change. Each Members must
// be a complete connected component of g, sorted ascending. When ctx
// carries a trace span, each component reports as a
// "core.component/<i>" child of it.
func ClusterComponents(ctx context.Context, g *wpg.Graph, comps []Component, todo []int, k int, ks []int32, workers int) {
	if len(todo) == 0 {
		return
	}
	sp := trace.FromContext(ctx)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range clampWorkers(workers, len(todo)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var csp *trace.Span
				if sp != nil {
					csp = sp.Child(fmt.Sprintf("core.component/%d", i))
				}
				c := &comps[i]
				c.Clusters, c.Undersized = ClusterComponentProfiled(g, c.Members, k, ks)
				csp.End()
			}
		}()
	}
	for _, i := range todo {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// clampWorkers sizes the component pool: n <= 0 selects GOMAXPROCS,
// and the pool never exceeds jobs (>= 1).
func clampWorkers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, jobs)
}

// MergeClusters is the serial scan's emission-order rule for clusters.
// It concatenates the components' clusters, orders them by ascending
// smallest member and numbers them in that order, rewriting their IDs
// in place, so over every component of a graph the result equals
// CentralizedTConnProfiled's clusters on the whole graph. The serial
// scan discovers every cluster at its smallest member while walking
// vertices in ascending order; components are ordered by smallest
// member too, but their vertex ranges interleave, hence the sort.
// Clusters are disjoint, so Members[0] is a strict total order.
func MergeClusters(comps []Component) (clusters []*Cluster) {
	for _, c := range comps {
		clusters = append(clusters, c.Clusters...)
	}
	slices.SortFunc(clusters, func(a, b *Cluster) int { return cmp.Compare(a.Members[0], b.Members[0]) })
	for i, c := range clusters {
		c.ID = int32(i)
	}
	return clusters
}

// ClusterComponentProfiled runs the serial safe-removal partition on
// one connected component of g, read straight off g's rows with no
// subgraph built, and returns clusters and undersized groups in global
// vertex ids. members must be a complete connected component of g,
// sorted ascending, so every tie breaks as in the whole-graph run.
// Cluster IDs in the result are local to the component; MergeClusters
// renumbers them across components.
//
// ks holds per-vertex anonymity floors indexed by GLOBAL vertex id (nil
// = uniform k). A component smaller than its largest effective floor is
// wholly undersized: the demanding vertex sits on one side of every
// candidate removal, so no split is ever safe and the component stays
// one (invalid) group — the shortcut matches the full algorithm.
func ClusterComponentProfiled(g *wpg.Graph, members []int32, k int, ks []int32) (clusters []*Cluster, undersized [][]int32) {
	if k < 1 {
		panic(fmt.Sprintf("core: k must be >= 1, got %d", k))
	}
	need := k
	if ks != nil {
		for _, v := range members {
			need = max(need, int(ks[v]))
		}
	}
	if len(members) < need {
		return nil, [][]int32{append([]int32(nil), members...)}
	}
	return tconnInduced(members, func(i int32) []wpg.Edge { return g.Neighbors(members[i]) }, k, ks)
}
