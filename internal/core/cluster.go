// Package core implements the paper's primary contribution: proximity
// minimum k-clustering on the weighted proximity graph (Section IV) and
// secure bounding of cluster coordinates (Section V).
//
// Clustering comes in three flavors:
//
//   - CentralizedTConn: Algorithm 1, run by a trusted anonymizer over the
//     whole WPG.
//   - DistributedTConn: Algorithm 2, run by a host user that discovers the
//     graph through peer messages; provably cluster-isolated.
//   - KNN / revised KNN: the local baseline of Fig. 4, which is cheap but
//     not cluster-isolated.
//
// Bounding (see bound*.go) obtains the cloaked rectangle of a cluster
// without any member revealing coordinates, via progressive
// hypothesis–verification with cost-optimal increments.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"nonexposure/internal/wpg"
)

// Cluster is one k-anonymity group: an equivalence class of users that
// share a cloaked region. Members are sorted by id.
type Cluster struct {
	// ID is the registry-assigned identifier.
	ID int32
	// Members are the user ids in the cluster, sorted ascending.
	Members []int32
	// T is the cluster's connectivity: the smallest t for which the
	// members form a t-connected component (the maximum edge weight the
	// cluster needs). 0 for singleton clusters.
	T int32
}

// Contains reports whether v is a member (binary search).
func (c *Cluster) Contains(v int32) bool {
	i := sort.Search(len(c.Members), func(i int) bool { return c.Members[i] >= v })
	return i < len(c.Members) && c.Members[i] == v
}

// Size returns the number of members.
func (c *Cluster) Size() int { return len(c.Members) }

// Registry tracks which users have been clustered. It enforces the
// reciprocity property: a user belongs to at most one cluster, and every
// member of a cluster maps to the same cluster. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	assign   []int32 // user -> cluster id, -1 when unassigned
	clusters []*Cluster
}

// NewRegistry returns a registry for n users, all unassigned.
func NewRegistry(n int) *Registry {
	r := &Registry{assign: make([]int32, n)}
	for i := range r.assign {
		r.assign[i] = -1
	}
	return r
}

// Len returns the number of users the registry tracks.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.assign)
}

// ClusterOf returns the cluster of v, or (nil, false) when v is
// unassigned.
func (r *Registry) ClusterOf(v int32) (*Cluster, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id := r.assign[v]
	if id < 0 {
		return nil, false
	}
	return r.clusters[id], true
}

// Assigned reports whether v has a cluster.
func (r *Registry) Assigned(v int32) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.assign[v] >= 0
}

// NumClusters returns the number of registered clusters.
func (r *Registry) NumClusters() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.clusters)
}

// NumAssigned returns the number of users with a cluster.
func (r *Registry) NumAssigned() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, a := range r.assign {
		if a >= 0 {
			n++
		}
	}
	return n
}

// Add registers one cluster over the given members (any order; the
// slice is copied and sorted). It fails if a member is listed twice or
// already assigned, which would break reciprocity.
func (r *Registry) Add(members []int32, t int32) (*Cluster, error) {
	out, err := r.addBatch([]*Cluster{{Members: members, T: t}}, false)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// AddBatch registers clusters atomically: either all succeed or none
// are applied. It reads each cluster's Members and T and ignores its
// ID; the registry keeps its own *Cluster values, numbered in batch
// order, and copies and sorts each member set, so the caller keeps
// ownership of its clusters.
func (r *Registry) AddBatch(clusters []*Cluster) ([]*Cluster, error) {
	return r.addBatch(clusters, false)
}

// AdoptBatch is AddBatch for member sets the caller hands over for
// good: each must already be sorted strictly ascending, and nobody may
// write into it afterwards. The registry's clusters then reference the
// slices instead of copying and re-sorting them, which is what lets
// successive epoch generations share the member lists of every
// component they splice. Validation is AddBatch's, plus the order
// check.
func (r *Registry) AdoptBatch(clusters []*Cluster) ([]*Cluster, error) {
	return r.addBatch(clusters, true)
}

// pending marks a user claimed by the batch being validated.
const pending = -2

func (r *Registry) addBatch(clusters []*Cluster, adopt bool) ([]*Cluster, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Validate everything up front so failure leaves no partial state.
	// The batch's users are marked pending in assign itself — a dense
	// stamp that catches a user listed twice, in one set or in two —
	// and unmarked on failure.
	fail := func(i, j int, err error) ([]*Cluster, error) {
		for _, c := range clusters[:i] {
			for _, v := range c.Members {
				r.assign[v] = -1
			}
		}
		for _, v := range clusters[i].Members[:j] {
			r.assign[v] = -1
		}
		return nil, err
	}
	for i, c := range clusters {
		ms := c.Members
		if len(ms) == 0 {
			return fail(i, 0, fmt.Errorf("core: empty cluster"))
		}
		for j, v := range ms {
			switch {
			case int(v) < 0 || int(v) >= len(r.assign):
				return fail(i, j, fmt.Errorf("core: user %d out of range", v))
			case adopt && j > 0 && ms[j-1] >= v:
				return fail(i, j, fmt.Errorf("core: adopted member set %d not strictly ascending at user %d", i, v))
			case r.assign[v] == pending:
				return fail(i, j, fmt.Errorf("core: user %d listed twice", v))
			case r.assign[v] >= 0:
				return fail(i, j, fmt.Errorf("core: user %d already in cluster %d", v, r.assign[v]))
			}
			r.assign[v] = pending
		}
	}
	slab := make([]Cluster, len(clusters))
	out := make([]*Cluster, len(clusters))
	for i, in := range clusters {
		ms := in.Members
		if !adopt {
			ms = slices.Clone(ms)
			slices.Sort(ms)
		}
		c := &slab[i]
		*c = Cluster{ID: int32(len(r.clusters)), Members: ms, T: in.T}
		r.clusters = append(r.clusters, c)
		for _, v := range ms {
			r.assign[v] = c.ID
		}
		out[i] = c
	}
	return out, nil
}

// Clusters returns a snapshot of all registered clusters.
func (r *Registry) Clusters() []*Cluster {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Cluster(nil), r.clusters...)
}

// CheckReciprocity verifies the reciprocity property (Section IV): every
// member of every cluster maps back to that cluster and clusters are
// disjoint. Returns nil when the invariant holds.
func (r *Registry) CheckReciprocity() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	owner := make(map[int32]int32)
	for _, c := range r.clusters {
		for _, v := range c.Members {
			if prev, dup := owner[v]; dup {
				return fmt.Errorf("core: user %d in clusters %d and %d", v, prev, c.ID)
			}
			owner[v] = c.ID
			if r.assign[v] != c.ID {
				return fmt.Errorf("core: user %d assign=%d but member of %d", v, r.assign[v], c.ID)
			}
		}
	}
	for v, id := range r.assign {
		if id >= 0 {
			if own, ok := owner[int32(v)]; !ok || own != id {
				return fmt.Errorf("core: user %d assigned to %d but not a member", v, id)
			}
		}
	}
	return nil
}

// AdjacencySource supplies the adjacency list of a user. It abstracts how
// a host learns the WPG: directly (in-process graph), or via one peer
// message per involved user (internal/p2p). Implementations must return
// adjacency sorted by (weight, id) as *wpg.Graph does.
type AdjacencySource interface {
	Adjacency(v int32) []wpg.Edge
	// NumUsers returns the total number of users in the system.
	NumUsers() int
}

// GraphSource adapts *wpg.Graph to AdjacencySource.
type GraphSource struct {
	G *wpg.Graph
}

// Adjacency implements AdjacencySource.
func (s GraphSource) Adjacency(v int32) []wpg.Edge { return s.G.Neighbors(v) }

// NumUsers implements AdjacencySource.
func (s GraphSource) NumUsers() int { return s.G.NumVertices() }

// Recorder wraps an AdjacencySource and counts distinct users whose
// adjacency was fetched. Per the paper's accounting, each such user sends
// the host exactly one message, so Involved() is the communication cost of
// a clustering run. The host's own adjacency is free.
//
// The memoization map is mutex-protected: a Recorder created inside one
// clustering run is owned by that goroutine, but concurrent cloak serving
// can share a Recorder across request goroutines (and race-enabled tests
// exercise exactly that).
type Recorder struct {
	src  AdjacencySource
	host int32

	mu      sync.Mutex
	fetched map[int32][]wpg.Edge
}

// NewRecorder returns a Recorder for a run hosted by host.
func NewRecorder(src AdjacencySource, host int32) *Recorder {
	return &Recorder{src: src, host: host, fetched: make(map[int32][]wpg.Edge)}
}

// Adjacency fetches (and memoizes) v's adjacency.
func (r *Recorder) Adjacency(v int32) []wpg.Edge {
	r.mu.Lock()
	if adj, ok := r.fetched[v]; ok {
		r.mu.Unlock()
		return adj
	}
	r.mu.Unlock()
	// Fetch outside the lock: the underlying source may be a network
	// round-trip (internal/p2p) and must not serialize the whole run.
	adj := r.src.Adjacency(v)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.fetched[v]; ok {
		return prev // a concurrent fetch won; keep one canonical slice
	}
	r.fetched[v] = adj
	return adj
}

// NumUsers implements AdjacencySource.
func (r *Recorder) NumUsers() int { return r.src.NumUsers() }

// Involved returns the number of distinct users (excluding the host) whose
// adjacency was fetched — the clustering communication cost.
func (r *Recorder) Involved() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.fetched)
	if _, ok := r.fetched[r.host]; ok {
		n--
	}
	return n
}
