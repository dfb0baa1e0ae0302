package core

import (
	"fmt"
	"sort"
	"sync"

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
// ties break as in the whole graph, and the merged clusters are
// renumbered in discovery order — ascending smallest member — exactly
// as the serial full-graph scan emits them.
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
	comps := g.Components()
	if len(comps) == 0 {
		return nil, nil
	}
	workers = ClampWorkers(workers, len(comps))

	type compResult struct {
		clusters   []*Cluster
		undersized [][]int32
	}
	results := make([]compResult, len(comps))

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i].clusters, results[i].undersized = ClusterComponentProfiled(g, comps[i], k, ks)
			}
		}()
	}
	for i := range comps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// The serial scan discovers every group at its smallest member while
	// walking vertices in ascending order, so its emission order is
	// "ascending smallest member" — restore that across components before
	// renumbering, making the parallel result bit-identical to the serial
	// one.
	for _, r := range results {
		clusters = append(clusters, r.clusters...)
		undersized = append(undersized, r.undersized...)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].Members[0] < clusters[j].Members[0] })
	sort.Slice(undersized, func(i, j int) bool { return undersized[i][0] < undersized[j][0] })
	for i, c := range clusters {
		c.ID = int32(i)
	}
	return clusters, undersized
}

// ClusterComponentProfiled runs the serial safe-removal partition on
// one connected component of g, read straight off g's rows with no
// subgraph built, and returns clusters and undersized groups in global
// vertex ids. members must be a complete connected component of g,
// sorted ascending, so every tie breaks as in the whole-graph run.
// Cluster IDs in the result are local to the component; whole-graph
// callers renumber after merging (see CentralizedTConnParallel). This is
// the shard-level entry point the incremental epoch rebuild uses to
// re-cluster only dirty components.
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
