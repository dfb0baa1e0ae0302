package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"nonexposure/internal/wpg"
)

func TestClusterContains(t *testing.T) {
	c := &Cluster{Members: []int32{2, 5, 9}}
	for _, v := range []int32{2, 5, 9} {
		if !c.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	for _, v := range []int32{0, 3, 10} {
		if c.Contains(v) {
			t.Errorf("Contains(%d) = true", v)
		}
	}
	if c.Size() != 3 {
		t.Errorf("Size = %d", c.Size())
	}
}

func TestRegistryAddAndLookup(t *testing.T) {
	r := NewRegistry(10)
	if r.Len() != 10 || r.NumClusters() != 0 || r.NumAssigned() != 0 {
		t.Fatalf("fresh registry: Len=%d clusters=%d assigned=%d", r.Len(), r.NumClusters(), r.NumAssigned())
	}
	c, err := r.Add([]int32{3, 1, 2}, 5)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if c.T != 5 {
		t.Errorf("T = %d", c.T)
	}
	if len(c.Members) != 3 || c.Members[0] != 1 || c.Members[2] != 3 {
		t.Errorf("Members not sorted: %v", c.Members)
	}
	for _, v := range []int32{1, 2, 3} {
		got, ok := r.ClusterOf(v)
		if !ok || got.ID != c.ID {
			t.Errorf("ClusterOf(%d) = %v,%v", v, got, ok)
		}
		if !r.Assigned(v) {
			t.Errorf("Assigned(%d) = false", v)
		}
	}
	if _, ok := r.ClusterOf(0); ok {
		t.Error("ClusterOf(0) should be unassigned")
	}
	if r.NumAssigned() != 3 {
		t.Errorf("NumAssigned = %d", r.NumAssigned())
	}
	if err := r.CheckReciprocity(); err != nil {
		t.Errorf("CheckReciprocity: %v", err)
	}
}

func TestRegistryRejectsDoubleAssignment(t *testing.T) {
	r := NewRegistry(5)
	if _, err := r.Add([]int32{0, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add([]int32{1, 2}, 1); err == nil {
		t.Error("overlapping cluster must be rejected (reciprocity)")
	}
	if _, err := r.Add([]int32{2, 2}, 1); err == nil || !strings.Contains(err.Error(), "user 2 listed twice") {
		t.Errorf("duplicate member: err = %v, want user 2 listed twice", err)
	}
	if _, err := r.Add(nil, 1); err == nil {
		t.Error("empty cluster must be rejected")
	}
	if _, err := r.Add([]int32{99}, 1); err == nil {
		t.Error("out-of-range member must be rejected")
	}
	// State must be unchanged by the failures above.
	if r.NumClusters() != 1 || r.NumAssigned() != 2 {
		t.Errorf("registry mutated by failed adds: clusters=%d assigned=%d", r.NumClusters(), r.NumAssigned())
	}
}

// batch turns member sets into the clusters AddBatch and AdoptBatch
// take, each with connectivity ts[i] (0 when ts is short).
func batch(ts []int32, sets ...[]int32) []*Cluster {
	out := make([]*Cluster, len(sets))
	for i, ms := range sets {
		out[i] = &Cluster{Members: ms}
		if i < len(ts) {
			out[i].T = ts[i]
		}
	}
	return out
}

func TestRegistryAddBatchAtomic(t *testing.T) {
	r := NewRegistry(6)
	_, err := r.AddBatch(batch(nil, []int32{0, 1}, []int32{1, 2}))
	if err == nil || !strings.Contains(err.Error(), "user 1 listed twice") {
		t.Fatalf("batch with overlapping clusters: err = %v, want user 1 listed twice", err)
	}
	if r.NumAssigned() != 0 || r.NumClusters() != 0 {
		t.Error("failed batch must not leave partial state")
	}
	_, err = r.AddBatch(batch(nil, []int32{0, 1}, []int32{3, 2, 3}))
	if err == nil || !strings.Contains(err.Error(), "user 3 listed twice") {
		t.Fatalf("set listing a user twice: err = %v, want user 3 listed twice", err)
	}
	if r.NumAssigned() != 0 || r.NumClusters() != 0 {
		t.Error("failed batch must not leave partial state")
	}
	in := batch([]int32{2, 7}, []int32{1, 0}, []int32{2, 3, 4})
	in[0].ID, in[1].ID = 9, 9
	cs, err := r.AddBatch(in)
	if err != nil {
		t.Fatalf("valid batch: %v", err)
	}
	if len(cs) != 2 || cs[0].ID != 0 || cs[1].ID != 1 || cs[1].T != 7 || !slices.Equal(cs[0].Members, []int32{0, 1}) {
		t.Errorf("batch result = %+v %+v, want ids 0 and 1, sorted members, T 7", cs[0], cs[1])
	}
	if cs[0] == in[0] || in[0].ID != 9 || !slices.Equal(in[0].Members, []int32{1, 0}) {
		t.Errorf("AddBatch wrote into or kept the caller's cluster: %+v", in[0])
	}
	if err := r.CheckReciprocity(); err != nil {
		t.Errorf("CheckReciprocity: %v", err)
	}
}

// TestRegistryAdoptBatch pins the by-reference entry point: adopted
// member slices are referenced, not copied; unsorted, duplicated,
// taken, empty and out-of-range sets fail with no partial state; and
// AddBatch still copies (and sorts) what it is given.
func TestRegistryAdoptBatch(t *testing.T) {
	r := NewRegistry(8)
	if _, err := r.AddBatch(batch(nil, []int32{0, 1})); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sets [][]int32
		want string
	}{
		{"unsorted", [][]int32{{2, 3}, {5, 4}}, "not strictly ascending"},
		{"repeated member", [][]int32{{2, 2}}, "not strictly ascending"},
		{"across sets", [][]int32{{2, 3}, {3, 4}}, "user 3 listed twice"},
		{"already assigned", [][]int32{{2, 3}, {1, 4}}, "already in cluster 0"},
		{"out of range", [][]int32{{2, 3}, {4, 9}}, "out of range"},
		{"empty", [][]int32{{2, 3}, {}}, "empty cluster"},
	} {
		_, err := r.AdoptBatch(batch(nil, tc.sets...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if r.NumClusters() != 1 || r.NumAssigned() != 2 {
			t.Fatalf("%s: failed batch left state: clusters=%d assigned=%d", tc.name, r.NumClusters(), r.NumAssigned())
		}
	}
	adopted := []int32{2, 3, 5}
	in := batch([]int32{3, 1}, adopted, []int32{4, 6})
	cs, err := r.AdoptBatch(in)
	if err != nil {
		t.Fatalf("valid adopt: %v", err)
	}
	if &cs[0].Members[0] != &adopted[0] || cs[0].ID != 1 || cs[1].ID != 2 || cs[0].T != 3 {
		t.Errorf("adopted clusters = %+v %+v, want the caller's slice under ids 1, 2", cs[0], cs[1])
	}
	if cs[0] == in[0] || in[0].ID != 0 {
		t.Errorf("AdoptBatch numbered the caller's cluster instead of its own: %+v", in[0])
	}
	given := []int32{7}
	cs, err = r.AddBatch(batch(nil, given))
	if err != nil {
		t.Fatal(err)
	}
	if &cs[0].Members[0] == &given[0] {
		t.Error("AddBatch referenced the caller's slice instead of copying it")
	}
	if err := r.CheckReciprocity(); err != nil {
		t.Errorf("CheckReciprocity: %v", err)
	}
}

func TestRegistryConcurrentAdds(t *testing.T) {
	const n = 400
	r := NewRegistry(n)
	var wg sync.WaitGroup
	errs := make(chan error, n/2)
	for i := 0; i < n; i += 2 {
		wg.Add(1)
		go func(i int32) {
			defer wg.Done()
			if _, err := r.Add([]int32{i, i + 1}, 1); err != nil {
				errs <- err
			}
		}(int32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Add: %v", err)
	}
	if r.NumAssigned() != n {
		t.Errorf("NumAssigned = %d, want %d", r.NumAssigned(), n)
	}
	if err := r.CheckReciprocity(); err != nil {
		t.Errorf("CheckReciprocity: %v", err)
	}
}

func TestRecorderAccounting(t *testing.T) {
	g := wpg.MustFromEdges(4, pathEdges(4))
	rec := NewRecorder(GraphSource{G: g}, 0)
	if rec.Involved() != 0 {
		t.Fatalf("fresh recorder Involved = %d", rec.Involved())
	}
	rec.Adjacency(0) // the host is free
	if rec.Involved() != 0 {
		t.Errorf("host fetch counted: %d", rec.Involved())
	}
	rec.Adjacency(1)
	rec.Adjacency(2)
	rec.Adjacency(1) // memoized, not recounted
	if rec.Involved() != 2 {
		t.Errorf("Involved = %d, want 2", rec.Involved())
	}
	if rec.NumUsers() != 4 {
		t.Errorf("NumUsers = %d", rec.NumUsers())
	}
}

// TestRecorderConcurrentAdjacency shares one Recorder across goroutines
// (the shape concurrent cloak serving produces) and relies on -race to
// catch unguarded map access; it also checks the memoized slices stay
// canonical and the accounting exact.
func TestRecorderConcurrentAdjacency(t *testing.T) {
	g := wpg.MustFromEdges(64, pathEdges(64))
	rec := NewRecorder(GraphSource{G: g}, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := int32((w*31 + i) % 64)
				adj := rec.Adjacency(v)
				if len(adj) == 0 {
					t.Errorf("vertex %d: empty adjacency", v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if rec.Involved() != 63 { // all vertices touched, host free
		t.Errorf("Involved = %d, want 63", rec.Involved())
	}
}

func TestErrInsufficientUsersIsSentinel(t *testing.T) {
	g := wpg.MustFromEdges(3, pathEdges(2)) // vertex 2 isolated
	reg := NewRegistry(3)
	_, _, err := DistributedTConn(GraphSource{G: g}, 2, 2, reg)
	if !errors.Is(err, ErrInsufficientUsers) {
		t.Errorf("err = %v, want ErrInsufficientUsers", err)
	}
}
