package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"

	"nonexposure/internal/core"
	"nonexposure/internal/epoch"
	"nonexposure/internal/service"
	"nonexposure/internal/wpg"
)

// reference is the single-process clustering of a run's final uploads:
// what every user's cloak must be once the run's last rotate is acked.
type reference struct {
	uploads  map[int32][]service.PeerRank
	graph    *wpg.Graph
	clusters []*core.Cluster
	skipped  int
	want     [][]int32 // sorted members per user, nil when the user must be refused
}

// ks returns the per-user anonymity floors of the ingest tier mix (nil
// when no user has a profile).
func (in *inputs) ks() []int32 {
	if in.profiles == nil {
		return nil
	}
	ks := make([]int32, in.n)
	for u, p := range in.profiles {
		ks[u] = p.K
	}
	return ks
}

// cluster runs the reference t-Conn clustering on g: the profiled
// variant when the workload carries profiles.
func (in *inputs) cluster(g *wpg.Graph) ([]*core.Cluster, [][]int32) {
	workers := runtime.GOMAXPROCS(0)
	if ks := in.ks(); ks != nil {
		return core.CentralizedTConnParallelProfiled(g, in.k, ks, workers)
	}
	return core.CentralizedTConnParallel(g, in.k, workers)
}

// buildReference clusters the final uploads in one process.
func buildReference(in *inputs, final map[int32][]service.PeerRank) (*reference, error) {
	g, err := epoch.BuildGraph(in.n, final)
	if err != nil {
		return nil, fmt.Errorf("reference graph: %w", err)
	}
	clusters, undersized := in.cluster(g)
	ref := &reference{uploads: final, graph: g, clusters: clusters, want: make([][]int32, in.n)}
	for _, c := range clusters {
		members := sortedCopy(c.Members)
		for _, m := range members {
			ref.want[m] = members
		}
	}
	for _, u := range undersized {
		ref.skipped += len(u)
	}
	return ref, nil
}

// compare checks a sweep against the reference: every served user must
// get exactly its reference member set, and exactly the users the
// reference leaves unclustered must be refused. It returns the number
// of users whose answer differs and the first difference.
func (r *reference) compare(answers [][]int32) (int, error) {
	wrong := 0
	var first error
	for u, got := range answers {
		want := r.want[u]
		if equal(got, want) {
			continue
		}
		wrong++
		if first == nil {
			first = fmt.Errorf("user %d: served %s, reference %s", u, render(got), render(want))
		}
	}
	return wrong, first
}

// digest is a sha256 over every user's answer in id order.
func digest(answers [][]int32) string {
	h := sha256.New()
	var buf []byte
	for u, a := range answers {
		buf = strconv.AppendInt(buf[:0], int64(u), 10)
		buf = append(buf, ':')
		buf = append(buf, render(a)...)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// render prints a member set, or "-" for a refusal.
func render(members []int32) string {
	if members == nil {
		return "-"
	}
	buf := make([]byte, 0, 8*len(members))
	for i, m := range members {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(m), 10)
	}
	return string(buf)
}

func equal(a, b []int32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
