// Package repro_test benchmarks regenerate every table and figure of the
// paper's evaluation (Section VI) plus the ablations DESIGN.md calls out.
//
// Benches run a density-preserving scaled-down population (see
// experiment.Params.Scaled) so a full -bench=. pass stays laptop-sized;
// `go run ./cmd/experiments -scale 1` reproduces paper scale. Each bench
// reports the figure's headline numbers via b.ReportMetric, so the series
// the paper plots appear directly in the benchmark output.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nonexposure/internal/anonymizer"
	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/epoch"
	"nonexposure/internal/experiment"
	"nonexposure/internal/geo"
	"nonexposure/internal/graph"
	"nonexposure/internal/lbs"
	"nonexposure/internal/wpg"
)

// benchScale keeps a -bench=. run in the minutes range on one core.
const benchScale = 0.05 // ~5,238 users, 100 requests

var (
	envOnce sync.Once
	envVal  *experiment.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiment.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = experiment.NewEnv(experiment.DefaultParams().Scaled(benchScale))
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// --- Table I ------------------------------------------------------------

func BenchmarkTable1Render(b *testing.B) {
	p := experiment.DefaultParams()
	for i := 0; i < b.N; i++ {
		if tb := experiment.Table1(p); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Fig. 9: degree sweep ------------------------------------------------

func BenchmarkFig09DegreeSweep(b *testing.B) {
	p := experiment.DefaultParams().Scaled(benchScale)
	for i := 0; i < b.N; i++ {
		commT, sizeT, err := experiment.RunDegreeSweep(p, []int{4, 8, 16, 32, 64})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRow(b, commT.Rows[2], "M16_comm_")
			reportRow(b, sizeT.Rows[2], "M16_size_")
		}
	}
}

// --- Fig. 10: POI payload sweep -------------------------------------------

func BenchmarkFig10POISize(b *testing.B) {
	p := experiment.DefaultParams().Scaled(benchScale)
	for i := 0; i < b.N; i++ {
		tb, err := experiment.RunPOISizeSweep(p, []float64{0, 1, 2, 5, 10, 15, 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRow(b, tb.Rows[4], "ratio10_total_")
		}
	}
}

// --- Fig. 11: k sweep ------------------------------------------------------

func BenchmarkFig11KSweep(b *testing.B) {
	p := experiment.DefaultParams().Scaled(benchScale)
	for i := 0; i < b.N; i++ {
		commT, sizeT, err := experiment.RunKSweep(p, []int{5, 10, 20, 30, 40, 50})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRow(b, commT.Rows[1], "k10_comm_")
			reportRow(b, sizeT.Rows[1], "k10_size_")
		}
	}
}

// --- Fig. 12: request-count sweep ------------------------------------------

func BenchmarkFig12RequestSweep(b *testing.B) {
	p := experiment.DefaultParams().Scaled(benchScale)
	ss := []int{p.Requests / 2, p.Requests, p.Requests * 2, p.Requests * 4}
	for i := 0; i < b.N; i++ {
		commT, sizeT, err := experiment.RunRequestSweep(p, ss)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRow(b, commT.Rows[3], "S4x_comm_")
			reportRow(b, sizeT.Rows[3], "S4x_size_")
		}
	}
}

// --- Fig. 13: bounding algorithms -------------------------------------------

func BenchmarkFig13Bounding(b *testing.B) {
	p := experiment.DefaultParams().Scaled(benchScale)
	for i := 0; i < b.N; i++ {
		a13, b13, c13, d13, err := experiment.RunBoundingSweep(p, []int{5, 10, 20, 50})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRow(b, a13.Rows[1], "k10_boundmsg_")
			reportRow(b, b13.Rows[1], "k10_reqratio_")
			reportRow(b, c13.Rows[1], "k10_total_")
			reportRow(b, d13.Rows[1], "k10_cpums_")
		}
	}
}

// reportRow publishes a figure-table row ("k", algo columns...) as custom
// benchmark metrics named prefix+column.
func reportRow(b *testing.B, row []string, prefix string) {
	b.Helper()
	for i, cell := range row {
		if i == 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(cell, &v); err == nil {
			b.ReportMetric(v, fmt.Sprintf("%scol%d", prefix, i))
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// Exact Eq. 3 dynamic program vs the paper's closed-form increments: CPU
// cost of deriving the policy (the paper's motivation for the closed form).
func BenchmarkAblationNBoundingClosedForm(b *testing.B) {
	m := core.CostModel{Cb: 1, Dist: core.UniformDist{U: 1}, Req: core.AreaCost{Cr: 1000}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 50; n++ {
			if _, err := m.NBoundingIncrement(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationNBoundingExactDP(b *testing.B) {
	m := core.CostModel{Cb: 1, Dist: core.UniformDist{U: 1}, Req: core.AreaCost{Cr: 1000}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ExactNBounding(50); err != nil {
			b.Fatal(err)
		}
	}
}

// kNN expansion variants: the paper-style Prim frontier vs the stronger
// Dijkstra baseline vs no-relay. Reports resulting mean region area.
func BenchmarkAblationKNNVariants(b *testing.B) {
	variants := []struct {
		name string
		opt  core.KNNOptions
	}{
		{"prim", core.KNNOptions{}},
		{"dijkstra", core.KNNOptions{Expansion: core.KNNDijkstra}},
		{"prim-norelay", core.KNNOptions{NoRelay: true}},
		{"revised", core.KNNOptions{DegreeTieBreak: true}},
	}
	env := benchEnv(b)
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reg := core.NewRegistry(env.Graph.NumVertices())
				var areaSum float64
				var formed int
				for host := int32(0); host < 200; host++ {
					c, _, err := core.KNNCluster(core.GraphSource{G: env.Graph}, host*13, 10, reg, v.opt)
					if err != nil {
						continue
					}
					r := geo.EmptyRect()
					for _, m := range c.Members {
						r = r.ExpandToInclude(env.Points[m])
					}
					areaSum += r.Area()
					formed++
				}
				if i == 0 && formed > 0 {
					b.ReportMetric(areaSum/float64(formed)*1e6, "area_1e-6")
				}
			}
		})
	}
}

// Centralized Algorithm 1 (safe removal on the MSF) vs the coalesced
// dendrogram cut: quality (mean cluster size) and speed of the two
// partitioning strategies.
func BenchmarkAblationCentralizedSafeRemoval(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clusters, _ := core.CentralizedTConn(env.Graph, 10)
		if i == 0 {
			total := 0
			for _, c := range clusters {
				total += c.Size()
			}
			b.ReportMetric(float64(total)/float64(len(clusters)), "mean_cluster_size")
		}
	}
}

func BenchmarkAblationCentralizedDendrogramCut(b *testing.B) {
	env := benchEnv(b)
	edges := env.Graph.Edges()
	n := env.Graph.NumVertices()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := graph.BuildDendrogram(n, edges)
		count, total := 0, 0
		d.CutMinSize(10, func(node int32) {
			count++
			total += int(d.Nodes[node].Size)
		})
		if i == 0 && count > 0 {
			b.ReportMetric(float64(total)/float64(count), "mean_cluster_size")
		}
	}
}

// Privacy loss (Section VII future work): mean exposure-interval width per
// bounding policy; larger is more private.
func BenchmarkAblationPrivacyLoss(b *testing.B) {
	env := benchEnv(b)
	policies := []core.IncrementPolicy{
		core.LinearIncrement{Step: 0.1},
		core.ExpIncrement{Init: 0.25},
		core.NewSecureIncrementForCluster(1, 1000, 10),
	}
	reg := core.NewRegistry(env.Graph.NumVertices())
	c, _, err := core.DistributedTConn(core.GraphSource{G: env.Graph}, 1, 10, reg)
	if err != nil {
		b.Fatal(err)
	}
	scale := core.DefaultRectScale(c.Size(), env.Graph.NumVertices())
	for _, pol := range policies {
		b.Run(pol.Name(), func(b *testing.B) {
			var exposure float64
			for i := 0; i < b.N; i++ {
				res, err := core.BoundRect(env.Points, c.Members, env.Points[1], scale, pol, 1)
				if err != nil {
					b.Fatal(err)
				}
				exposure = res.MeanExposure
			}
			b.ReportMetric(exposure*1e3, "exposure_1e-3")
		})
	}
}

// Dataset sensitivity: the same clustering workload on the three
// generators.
func BenchmarkAblationDatasets(b *testing.B) {
	for _, ds := range []string{"california-like", "uniform", "roadlike"} {
		b.Run(ds, func(b *testing.B) {
			p := experiment.DefaultParams().Scaled(benchScale)
			p.Dataset = ds
			env, err := experiment.NewEnv(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cm, err := experiment.RunClusteringWorkload(env, p.K, p.Requests, experiment.AlgoTConnDist)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(cm.AvgComm, "avg_comm")
					b.ReportMetric(cm.AvgArea*1e6, "avg_area_1e-6")
				}
			}
		})
	}
}

// Extension: non-exposure vs the exposure-based prior schemes (quadtree,
// hilbASR) — the related-work comparison the paper motivates but does not
// plot.
func BenchmarkExtensionExposureBaselines(b *testing.B) {
	p := experiment.DefaultParams().Scaled(benchScale)
	for i := 0; i < b.N; i++ {
		tb, err := experiment.RunExposureComparison(p, []int{10})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRow(b, tb.Rows[0], "k10_area_")
		}
	}
}

// Extension: continuous cloaking under mobility (Section VII) — per-epoch
// re-cloaking cost and region stability while users wander locally.
func BenchmarkExtensionMobility(b *testing.B) {
	p := experiment.DefaultParams().Scaled(benchScale)
	for i := 0; i < b.N; i++ {
		tb, err := experiment.RunMobilitySweep(p, 3, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRow(b, tb.Rows[2], "epoch2_")
		}
	}
}

// --- Concurrent cloak serving -------------------------------------------------

var (
	cloakGraphOnce sync.Once
	cloakGraphVal  *wpg.Graph
)

// concurrentCloakGraph is a multi-component WPG (well-separated Gaussian
// blobs) so component-parallel clustering has independent work per core.
func concurrentCloakGraph(b *testing.B) *wpg.Graph {
	b.Helper()
	cloakGraphOnce.Do(func() {
		pts := dataset.GaussianClusters(24000, 32, 0.012, 7)
		cloakGraphVal = wpg.Build(pts, wpg.BuildParams{Delta: 0.016, MaxPeers: 10})
	})
	return cloakGraphVal
}

// BenchmarkConcurrentCloakFirstRequest measures the whole-graph
// clustering an anonymizer runs before it serves its first request: the
// serial baseline vs the component-parallel build (workers = GOMAXPROCS).
func BenchmarkConcurrentCloakFirstRequest(b *testing.B) {
	g := concurrentCloakGraph(b)
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := anonymizer.Build(context.Background(), g, 10, bench.workers)
				if err != nil {
					b.Fatal(err)
				}
				if _, cost, err := s.Cloak(context.Background(), 0); err != nil || cost == 0 {
					b.Fatalf("first request: cost=%d err=%v", cost, err)
				}
			}
			if comps := len(g.Components()); b.N > 0 {
				b.ReportMetric(float64(comps), "components")
			}
		})
	}
}

// BenchmarkConcurrentCloakSteadyState measures post-build Cloak
// throughput. "locked" serializes every request behind one mutex — the
// seed's original serving path — while "shared" is the current design
// where requests ride the registry's RWMutex read path.
func BenchmarkConcurrentCloakSteadyState(b *testing.B) {
	g := concurrentCloakGraph(b)
	n := int32(g.NumVertices())
	newBuilt := func() *anonymizer.Server {
		s, err := anonymizer.Build(context.Background(), g, 10, 0)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("locked", func(b *testing.B) {
		s := newBuilt()
		var mu sync.Mutex
		b.SetParallelism(8) // oversubscribe so lock handoff shows on any core count
		b.RunParallel(func(pb *testing.PB) {
			host := int32(1)
			for pb.Next() {
				host = (host*48271 + 1) % n
				mu.Lock()
				s.Cloak(context.Background(), host) // undersized hosts still exercise the path
				mu.Unlock()
			}
		})
	})
	b.Run("shared", func(b *testing.B) {
		s := newBuilt()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			host := int32(1)
			for pb.Next() {
				host = (host*48271 + 1) % n
				s.Cloak(context.Background(), host)
			}
		})
	})
}

// BenchmarkEpochCloakDuringRebuild measures the epoch pipeline's
// serving path: "quiet" is steady-state cloaking against a published
// generation, "rebuilding" runs the same load while a background
// uploader keeps triggering fresh epoch builds. The two must stay close
// (the atomic-pointer swap is the whole point: rebuilds never block the
// read path).
func BenchmarkEpochCloakDuringRebuild(b *testing.B) {
	g := concurrentCloakGraph(b)
	n := int32(g.NumVertices())
	uploads := func() map[int32][]epoch.RankedPeer {
		out := make(map[int32][]epoch.RankedPeer, n)
		for v := int32(0); v < n; v++ {
			var peers []epoch.RankedPeer
			for _, e := range g.Neighbors(v) {
				peers = append(peers, epoch.RankedPeer{Peer: e.To, Rank: e.W})
			}
			out[v] = peers
		}
		return out
	}()
	newLive := func(b *testing.B) *epoch.Manager {
		b.Helper()
		m, err := epoch.New(int(n), epoch.WithK(10))
		if err != nil {
			b.Fatal(err)
		}
		for v, peers := range uploads {
			if err := m.Upload(context.Background(), epoch.UploadRequest{User: v, Peers: peers}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Rotate(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := m.Sync(context.Background()); err != nil {
			b.Fatal(err)
		}
		return m
	}
	run := func(b *testing.B, m *epoch.Manager) {
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			host := int32(1)
			for pb.Next() {
				host = (host*48271 + 1) % n
				m.Cloak(context.Background(), host)
			}
		})
	}
	b.Run("quiet", func(b *testing.B) {
		m := newLive(b)
		defer m.Close()
		run(b, m)
	})
	b.Run("rebuilding", func(b *testing.B) {
		m := newLive(b)
		defer m.Close()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			// Keep a build in flight: nudge one user and rotate, serially.
			defer close(done)
			rank := int32(2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rank++
				peers := append([]epoch.RankedPeer(nil), uploads[0]...)
				if len(peers) > 0 {
					peers[0].Rank = 1 + rank%7
				}
				if err := m.Upload(context.Background(), epoch.UploadRequest{User: 0, Peers: peers}); err != nil {
					return
				}
				if _, err := m.Rotate(context.Background()); err != nil {
					return
				}
				m.Sync(context.Background())
			}
		}()
		run(b, m)
		close(stop)
		<-done
		b.ReportMetric(float64(m.Status().Builds), "rebuilds")
	})
}

// BenchmarkEpochIncrementalRebuild measures one epoch rebuild under
// partial churn: each iteration re-uploads a fixed fraction of the
// population, rotates, and waits for the generation to publish.
// "incremental" splices every clean shard from the previous generation,
// so rebuild latency scales with the churned fraction instead of the
// population. "full" times what it is measured against: the first build
// of a fresh manager over the same uploads, where every shard clusters
// from scratch regardless of churn (its set-up and uploads run outside
// the timer). The full and incremental/N arms churn whole WPG
// components of a fully uploaded population, so the dirty set maps onto
// whole shards: the best case for splicing. "shard/10pct" has the shape
// of one shard of a two-shard cluster instead: the coordinator homes
// every other component elsewhere, so half the ids are mirrors with
// empty rows, and each iteration moves a fresh random 10% of the homed
// users, which dirties most of the shard's real components.
func BenchmarkEpochIncrementalRebuild(b *testing.B) {
	pts := dataset.GaussianClusters(20000, 200, 0.004, 11)
	g := wpg.Build(pts, wpg.BuildParams{Delta: 0.008, MaxPeers: 10})
	comps := g.Components()
	uploads := make(map[int32][]epoch.RankedPeer, g.NumVertices())
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		var peers []epoch.RankedPeer
		for _, e := range g.Neighbors(v) {
			peers = append(peers, epoch.RankedPeer{Peer: e.To, Rank: e.W})
		}
		uploads[v] = peers
	}
	var homed []int32
	for i, comp := range comps {
		if i%2 == 0 {
			homed = append(homed, comp...)
		}
	}
	// churnSet gathers whole components until they cover frac of the
	// population, so each iteration dirties a predictable share of shards.
	churnSet := func(frac float64) []int32 {
		target := int(frac * float64(g.NumVertices()))
		var users []int32
		for _, comp := range comps {
			if len(users) >= target {
				break
			}
			users = append(users, comp...)
		}
		return users
	}
	// churned is u's list as iteration i re-uploads it: a real rank
	// change every iteration.
	churned := func(u int32, i int) []epoch.RankedPeer {
		peers := append([]epoch.RankedPeer(nil), uploads[u]...)
		if len(peers) > 0 {
			peers[0].Rank += int32(1 + i%3)
		}
		return peers
	}
	ctx := context.Background()
	// load starts a manager holding population's uploads, with the users
	// in moved re-uploaded as iteration i changes them.
	load := func(b *testing.B, population, moved []int32, i int) *epoch.Manager {
		m, err := epoch.New(g.NumVertices(), epoch.WithK(10))
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range population {
			if err := m.Upload(ctx, epoch.UploadRequest{User: v, Peers: uploads[v]}); err != nil {
				b.Fatal(err)
			}
		}
		for _, u := range moved {
			if err := m.Upload(ctx, epoch.UploadRequest{User: u, Peers: churned(u, i)}); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	report := func(b *testing.B, gen *epoch.Generation) {
		if gen == nil || gen.BuildErr != nil {
			b.Fatalf("final generation = %+v", gen)
		}
		if gen.ShardsTotal > 0 {
			b.ReportMetric(float64(gen.ShardsRebuilt), "shards_rebuilt")
			b.ReportMetric(float64(gen.ShardsTotal), "shards_total")
		}
	}
	incremental := func(b *testing.B, population []int32, churn func(i int) []int32) {
		m := load(b, population, nil, 0)
		defer m.Close()
		if _, err := m.RotateAndWait(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var gen *epoch.Generation
		for i := 0; i < b.N; i++ {
			for _, u := range churn(i) {
				if err := m.Upload(ctx, epoch.UploadRequest{User: u, Peers: churned(u, i)}); err != nil {
					b.Fatal(err)
				}
			}
			var err error
			if gen, err = m.RotateAndWait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b, gen)
	}
	fromScratch := func(b *testing.B, population []int32, churn func(i int) []int32) {
		var gen *epoch.Generation
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := load(b, population, churn(i), i)
			b.StartTimer()
			var err error
			gen, err = m.RotateAndWait(ctx)
			b.StopTimer()
			m.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, gen)
	}
	all := make([]int32, g.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	components := func(frac float64) func(int) []int32 {
		users := churnSet(frac)
		return func(int) []int32 { return users }
	}
	movers := func(i int) []int32 {
		rng := rand.New(rand.NewSource(int64(i)))
		out := make([]int32, len(homed)/10)
		for j, k := range rng.Perm(len(homed))[:len(out)] {
			out[j] = homed[k]
		}
		return out
	}
	b.Run("full/10pct", func(b *testing.B) { fromScratch(b, all, components(0.10)) })
	b.Run("incremental/1pct", func(b *testing.B) { incremental(b, all, components(0.01)) })
	b.Run("incremental/10pct", func(b *testing.B) { incremental(b, all, components(0.10)) })
	b.Run("incremental/50pct", func(b *testing.B) { incremental(b, all, components(0.50)) })
	b.Run("shard/10pct", func(b *testing.B) { incremental(b, homed, movers) })
}

// --- Component micro-benchmarks ----------------------------------------------

func BenchmarkWPGBuild(b *testing.B) {
	pts := dataset.CaliforniaLike(10000, 1)
	params := wpg.BuildParams{Delta: 2e-3 * 3.24, MaxPeers: 10} // density-matched
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := wpg.Build(pts, params)
		if g.NumVertices() != 10000 {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkCentralizedTConn(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clusters, _ := core.CentralizedTConn(env.Graph, 10)
		if len(clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

func BenchmarkDistributedTConnPerRequest(b *testing.B) {
	env := benchEnv(b)
	n := env.Graph.NumVertices()
	b.ReportAllocs()
	reg := core.NewRegistry(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := int32(i*37) % int32(n)
		if _, _, err := core.DistributedTConn(core.GraphSource{G: env.Graph}, host, 10, reg); err != nil {
			reg = core.NewRegistry(n) // pool exhausted: start a fresh world
		}
	}
}

func BenchmarkKNNPerRequest(b *testing.B) {
	env := benchEnv(b)
	n := env.Graph.NumVertices()
	b.ReportAllocs()
	reg := core.NewRegistry(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := int32(i*37) % int32(n)
		if _, _, err := core.KNNCluster(core.GraphSource{G: env.Graph}, host, 10, reg, core.KNNOptions{}); err != nil {
			reg = core.NewRegistry(n)
		}
	}
}

func BenchmarkSecureBoundRect(b *testing.B) {
	env := benchEnv(b)
	reg := core.NewRegistry(env.Graph.NumVertices())
	c, _, err := core.DistributedTConn(core.GraphSource{G: env.Graph}, 2, 10, reg)
	if err != nil {
		b.Fatal(err)
	}
	pol := core.NewSecureIncrementForCluster(1, 1000, c.Size())
	scale := core.DefaultRectScale(c.Size(), env.Graph.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BoundRect(env.Points, c.Members, env.Points[2], scale, pol, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLBSRangeQuery(b *testing.B) {
	env := benchEnv(b)
	r := geo.Rect{Min: geo.Point{X: 0.4, Y: 0.4}, Max: geo.Point{X: 0.42, Y: 0.42}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.LBS.Index().Range(r)
	}
}

func BenchmarkLBSRangeNN(b *testing.B) {
	pts := dataset.Uniform(20000, 3)
	idx := lbs.NewGridIndex(pts, 0)
	r := geo.Rect{Min: geo.Point{X: 0.5, Y: 0.5}, Max: geo.Point{X: 0.51, Y: 0.51}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids := idx.RangeNN(r, 5); len(ids) < 5 {
			b.Fatal("candidate set too small")
		}
	}
}

func BenchmarkDendrogramBuild(b *testing.B) {
	env := benchEnv(b)
	edges := env.Graph.Edges()
	n := env.Graph.NumVertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := graph.BuildBinaryDendrogram(n, edges); d.NumLeaves != n {
			b.Fatal("bad dendrogram")
		}
	}
}
