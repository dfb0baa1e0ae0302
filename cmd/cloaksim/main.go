// Command cloaksim runs one end-to-end non-exposure cloaking request on a
// synthetic population and prints what happened: the cluster, the cloaked
// region, and the two phases' communication costs.
//
// With -load it instead acts as a load generator: -workers concurrent
// clients hammer an in-process centralized anonymizer with -load cloak
// requests drawn from a Zipf(-theta) popularity mix over hosts (0 =
// uniform), reporting throughput, latency percentiles, and the
// realized skew — the harness behind the serving-concurrency numbers
// in CHANGES.md.
//
// With -churn it drives the epoch re-clustering pipeline under a mobile
// population: each tick a fraction of the users move (local-wander
// mobility) and re-upload their proximity rankings, the pipeline
// rotates a new epoch in the background, and concurrent cloak clients
// measure availability across the generation swaps.
//
// With -cell it runs one experiment-grid cell (internal/bench): -reps
// repetitions of cold build + churn ticks + a Zipf-skewed request replay
// over the (n, k, churnfrac, workers) point, printing the aggregated
// CellResult as JSON.
//
// With -faults it runs the deterministic fault-injection harness: N
// seeded scenarios (message loss, lossy links, loss bursts, node
// crashes, partitions) drive the full two-phase protocol over the
// simulated network and every safety invariant is checked after each
// run. Any violation prints the scenario transcript and exits nonzero.
//
// Usage:
//
//	cloaksim -n 5000 -k 10 -host 42 -bound secure -mode distributed
//	cloaksim -n 20000 -k 10 -load 100000 -workers 32
//	cloaksim -n 5000 -k 10 -churn 20 -churnfrac 0.2
//	cloaksim -cell -n 1000 -k 5 -churnfrac 0.1 -workers 2 -reps 3
//	cloaksim -faults 500 -faultseed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonexposure/cloak"
	"nonexposure/internal/anonymizer"
	"nonexposure/internal/bench"
	"nonexposure/internal/cluster"
	"nonexposure/internal/dataset"
	"nonexposure/internal/epoch"
	"nonexposure/internal/geo"
	"nonexposure/internal/lbs"
	"nonexposure/internal/metrics"
	"nonexposure/internal/mobility"
	"nonexposure/internal/service"
	"nonexposure/internal/sim"
	"nonexposure/internal/trace"
	"nonexposure/internal/workload"
	"nonexposure/internal/wpg"
)

// simConfig is everything main parses from flags, separated so
// validation is testable without the flag package.
type simConfig struct {
	n, k, host    int
	seed          int64
	mode, bound   string
	delta         float64
	network       bool
	loss          float64
	nearby        int
	load          int
	workers       int
	churn         int
	churnFrac     float64
	faults        int
	faultSeed     int64
	showTrace     bool
	cell          bool
	reps          int
	ticks         int
	theta         float64
	profiles      bool
	cluster       bool
	shards        int
	cloakdBin     string
	killShard     int
	failoverAfter time.Duration
}

// validate rejects bad flag combinations up front, before any dataset
// is generated, with messages that name the offending flag.
func (c simConfig) validate() error {
	if c.profiles && c.cell {
		return fmt.Errorf("-profiles and -cell are mutually exclusive (use -cell with a profiles grid via scripts/bench instead)")
	}
	if c.cluster {
		if c.profiles || c.cell || c.faults > 0 {
			return fmt.Errorf("-cluster cannot be combined with -profiles, -cell, or -faults")
		}
		if c.shards < 1 {
			return fmt.Errorf("-shards must be >= 1 with -cluster, got %d", c.shards)
		}
	}
	if c.failoverAfter <= 0 {
		return fmt.Errorf("-failover-after must be > 0, got %v", c.failoverAfter)
	}
	if c.failoverAfter != cluster.DefaultDeadAfter && !c.cluster {
		return fmt.Errorf("-failover-after requires -cluster")
	}
	if c.killShard >= 0 {
		if !c.cluster {
			return fmt.Errorf("-kill-shard requires -cluster")
		}
		if c.shards < 2 {
			return fmt.Errorf("-kill-shard needs -shards >= 2 so survivors remain, got %d", c.shards)
		}
		if c.killShard >= c.shards {
			return fmt.Errorf("-kill-shard %d out of range [0,%d)", c.killShard, c.shards)
		}
	}
	if c.profiles && (c.load > 0 || c.churn > 0 || c.faults > 0) {
		return fmt.Errorf("-profiles cannot be combined with -load, -churn, or -faults")
	}
	if c.n < 1 {
		return fmt.Errorf("-n must be >= 1, got %d", c.n)
	}
	if c.k < 1 {
		return fmt.Errorf("-k must be >= 1, got %d", c.k)
	}
	if c.faults < 0 {
		return fmt.Errorf("-faults must be >= 0, got %d", c.faults)
	}
	if c.churn < 0 {
		return fmt.Errorf("-churn must be >= 0, got %d", c.churn)
	}
	if c.load < 0 {
		return fmt.Errorf("-load must be >= 0, got %d", c.load)
	}
	if c.workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", c.workers)
	}
	if c.churn > 0 && (c.churnFrac <= 0 || c.churnFrac > 1) {
		return fmt.Errorf("-churnfrac must be in (0,1], got %g", c.churnFrac)
	}
	if c.loss < 0 || c.loss > 1 {
		return fmt.Errorf("-loss must be in [0,1], got %g", c.loss)
	}
	if c.nearby < 0 {
		return fmt.Errorf("-nearby must be >= 0, got %d", c.nearby)
	}
	if c.delta < 0 {
		return fmt.Errorf("-delta must be >= 0, got %g", c.delta)
	}
	if c.theta < 0 || math.IsNaN(c.theta) || math.IsInf(c.theta, 0) {
		return fmt.Errorf("-theta must be finite and >= 0, got %g", c.theta)
	}
	if c.cell {
		if c.reps < 1 {
			return fmt.Errorf("-reps must be >= 1, got %d", c.reps)
		}
		if c.ticks < 1 {
			return fmt.Errorf("-ticks must be >= 1 in -cell mode, got %d", c.ticks)
		}
		if c.churnFrac <= 0 || c.churnFrac > 1 {
			return fmt.Errorf("-churnfrac must be in (0,1], got %g", c.churnFrac)
		}
	}
	return nil
}

func main() {
	var cfg simConfig
	flag.IntVar(&cfg.n, "n", 5000, "population size")
	flag.IntVar(&cfg.k, "k", 10, "anonymity level")
	flag.IntVar(&cfg.host, "host", 0, "requesting user id")
	flag.Int64Var(&cfg.seed, "seed", 42, "random seed")
	flag.StringVar(&cfg.mode, "mode", "distributed", "clustering mode: distributed|centralized")
	flag.StringVar(&cfg.bound, "bound", "secure", "bounding: secure|linear|exponential|optimal")
	flag.Float64Var(&cfg.delta, "delta", 0, "radio range (0 = auto for the population size)")
	flag.BoolVar(&cfg.network, "network", false, "run the protocols over a simulated p2p message network")
	flag.Float64Var(&cfg.loss, "loss", 0, "message loss rate for -network")
	flag.IntVar(&cfg.nearby, "nearby", 3, "after cloaking, fetch this many nearest POIs (0 = skip)")
	flag.IntVar(&cfg.load, "load", 0, "load-generator mode: issue this many concurrent cloak requests (0 = off)")
	flag.IntVar(&cfg.workers, "workers", 16, "concurrent clients for -load and -churn")
	flag.IntVar(&cfg.churn, "churn", 0, "churn mode: run this many mobility ticks through the epoch pipeline (0 = off)")
	flag.Float64Var(&cfg.churnFrac, "churnfrac", 0.2, "fraction of users re-uploading per churn tick")
	flag.IntVar(&cfg.faults, "faults", 0, "fault-injection mode: run this many seeded fault scenarios (0 = off)")
	flag.Int64Var(&cfg.faultSeed, "faultseed", 1, "first scenario seed for -faults")
	flag.BoolVar(&cfg.showTrace, "trace", false, "print the span tree of the cloak request (single-request mode)")
	flag.BoolVar(&cfg.cell, "cell", false, "grid-cell mode: run one bench cell (n,k,churnfrac,workers) and print its CellResult as JSON")
	flag.IntVar(&cfg.reps, "reps", 1, "repetitions per cell for -cell")
	flag.IntVar(&cfg.ticks, "ticks", 4, "churn ticks per rep for -cell")
	flag.Float64Var(&cfg.theta, "theta", 0.8, "Zipf skew of the request mix for -cell and -load")
	flag.BoolVar(&cfg.profiles, "profiles", false, "utility-frontier mode: run the mixed privacy-profile tier mix through the epoch pipeline and report per-tier cloak area vs candidate-set size")
	flag.BoolVar(&cfg.cluster, "cluster", false, "cluster mode: bring up a sharded cloakd cluster behind a routing coordinator and run the churn+load workload against it")
	flag.IntVar(&cfg.shards, "shards", 2, "shard count for -cluster")
	flag.StringVar(&cfg.cloakdBin, "cloakd-bin", "", "path to a cloakd binary for -cluster: spawn shards as separate OS processes (empty = in-process shards)")
	flag.IntVar(&cfg.killShard, "kill-shard", -1, "with -cluster: kill this shard after the first epoch and require fail-over to recover every user (-1 = off)")
	flag.DurationVar(&cfg.failoverAfter, "failover-after", cluster.DefaultDeadAfter, "with -cluster: declare a shard that has failed this long dead at the next rotation and re-home its users onto survivors (must be > 0)")
	flag.Parse()
	err := cfg.validate()
	if err == nil {
		switch {
		case cfg.cluster:
			err = runCluster(cfg)
		case cfg.profiles:
			err = runProfiles(cfg)
		case cfg.cell:
			err = runGridCell(cfg)
		case cfg.faults > 0:
			err = runFaults(cfg.faults, cfg.faultSeed)
		case cfg.churn > 0:
			err = runChurn(cfg.n, cfg.k, cfg.seed, cfg.delta, cfg.churn, cfg.churnFrac, cfg.workers)
		case cfg.load > 0:
			err = runLoad(cfg.n, cfg.k, cfg.seed, cfg.delta, cfg.load, cfg.workers, cfg.theta)
		default:
			err = run(cfg.n, cfg.k, cfg.host, cfg.seed, cfg.mode, cfg.bound, cfg.delta,
				cfg.network, cfg.loss, cfg.nearby, cfg.showTrace)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloaksim:", err)
		os.Exit(1)
	}
}

// runGridCell is the experiment-grid entry point: one bench cell over
// the flag-selected (n, k, churnfrac, workers) point, repeated -reps
// times, with the aggregated CellResult printed as JSON so scripts/bench
// (or anything else) can drive cells out of process. -load sets the
// request count when nonzero.
func runGridCell(cfg simConfig) error {
	requests := cfg.load
	if requests == 0 {
		requests = 2000
	}
	res, err := bench.RunCell(
		bench.CellParams{N: cfg.n, K: cfg.k, ChurnFrac: cfg.churnFrac, Workers: cfg.workers},
		bench.CellConfig{Ticks: cfg.ticks, Requests: requests, Theta: cfg.theta, Seed: cfg.seed, Reps: cfg.reps},
	)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runChurn is the epoch-pipeline workload: a mobile population keeps
// re-uploading while concurrent clients cloak, and the report shows how
// availability held up across the background generation swaps.
func runChurn(n, k int, seed int64, delta float64, ticks int, frac float64, workers int) error {
	if workers < 1 {
		workers = 1
	}
	if frac <= 0 || frac > 1 {
		return fmt.Errorf("churnfrac %v outside (0,1]", frac)
	}
	if delta == 0 {
		delta = 2e-3 * math.Sqrt(104770.0/float64(n))
	}
	pts := dataset.CaliforniaLike(n, seed)
	model, err := mobility.NewLocalWander(pts, delta, delta/4, delta/2, seed)
	if err != nil {
		return err
	}
	em := metrics.NewEpochMetrics()
	mgr, err := epoch.New(n, epoch.WithK(k), epoch.WithMetrics(em))
	if err != nil {
		return err
	}
	defer mgr.Close()

	// uploadAll derives every listed user's ranked peer list from the WPG
	// over the current positions and feeds it to the pipeline.
	ctx := context.Background()
	uploadFrom := func(g *wpg.Graph, users []int32) error {
		for _, v := range users {
			var peers []epoch.RankedPeer
			for _, e := range g.Neighbors(v) {
				peers = append(peers, epoch.RankedPeer{Peer: e.To, Rank: e.W})
			}
			if err := mgr.Upload(ctx, epoch.UploadRequest{User: v, Peers: peers}); err != nil {
				return err
			}
		}
		return nil
	}

	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	g := wpg.Build(model.Positions(), wpg.BuildParams{Delta: delta, MaxPeers: 10})
	if err := uploadFrom(g, all); err != nil {
		return err
	}
	if _, err := mgr.Rotate(ctx); err != nil {
		return err
	}
	if err := mgr.Sync(ctx); err != nil {
		return err
	}
	fmt.Printf("churn: epoch 1 live (%d users, %d edges); %d ticks re-uploading %.0f%% per tick\n",
		n, mgr.Current().Edges, ticks, frac*100)

	// The cloak hammer runs for the whole churn, counting availability.
	var (
		wg                   sync.WaitGroup
		served, unclust, bad atomic.Int64
		minEp, maxEp         atomic.Uint64
	)
	minEp.Store(^uint64(0))
	reqm := metrics.NewRequestMetrics()
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			host := int32(w * 2654435761 % n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				host = int32((int64(host)*48271 + 1) % int64(n))
				t0 := time.Now()
				res, err := mgr.Cloak(context.Background(), host)
				ep := res.Epoch
				reqm.Observe("cloak", time.Since(t0), err == nil)
				switch {
				case err == nil:
					served.Add(1)
					for old := minEp.Load(); ep < old && !minEp.CompareAndSwap(old, ep); old = minEp.Load() {
					}
					for old := maxEp.Load(); ep > old && !maxEp.CompareAndSwap(old, ep); old = maxEp.Load() {
					}
				case strings.Contains(err.Error(), "smaller than k"):
					unclust.Add(1)
				default:
					bad.Add(1)
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(seed))
	perTick := int(frac * float64(n))
	if perTick < 1 {
		perTick = 1
	}
	for tick := 0; tick < ticks; tick++ {
		model.Step(1)
		g := wpg.Build(model.Positions(), wpg.BuildParams{Delta: delta, MaxPeers: 10})
		moved := rng.Perm(n)[:perTick]
		users := make([]int32, perTick)
		for i, u := range moved {
			users[i] = int32(u)
		}
		if err := uploadFrom(g, users); err != nil {
			close(stop)
			wg.Wait()
			return err
		}
		if _, err := mgr.Rotate(ctx); err != nil && err != epoch.ErrNoNewUploads {
			close(stop)
			wg.Wait()
			return err
		}
	}
	if err := mgr.Sync(ctx); err != nil {
		return err
	}
	close(stop)
	wg.Wait()

	total := served.Load() + unclust.Load() + bad.Load()
	snap := reqm.Snapshot()
	es := em.Snapshot()
	fmt.Printf("churn: %d cloaks from %d workers across epochs %d..%d\n",
		total, workers, minEp.Load(), maxEp.Load())
	fmt.Printf("churn: availability %.3f%% (%d served, %d unclusterable, %d hard failures)\n",
		100*float64(served.Load())/float64(total), served.Load(), unclust.Load(), bad.Load())
	fmt.Printf("churn: cloak latency p50=%v p95=%v p99=%v\n", snap.P50, snap.P95, snap.P99)
	fmt.Printf("churn: pipeline %s\n", es)
	if es.ShardsTotal > 0 {
		fmt.Printf("churn: shard reuse %.1f%% (%d of %d shards spliced from the previous generation)\n",
			100*(1-float64(es.ShardsRebuilt)/float64(es.ShardsTotal)),
			es.ShardsTotal-es.ShardsRebuilt, es.ShardsTotal)
	}
	if bad.Load() > 0 {
		return fmt.Errorf("%d cloaks failed hard during swaps", bad.Load())
	}
	return nil
}

// runProfiles is the utility-frontier mode: the mixed privacy-profile
// tier mix (bench.ProfileMixMixed — 70% default, 20% k_i=2k, 10%
// k_i=2k plus a tight MaxArea) over a static CaliforniaLike population,
// pushed through the epoch pipeline, then measured from the user's
// side. For every user it cloaks, takes the cluster's bounding box as
// the cloaked region, and asks an LBS built over the same points for
// the RangeNN candidate superset — so the table shows what each tier's
// extra privacy buys (effective k) and costs (cloak area, candidate
// POIs shipped, degraded answers). Everything is seeded: the frontier
// is reproducible.
func runProfiles(cfg simConfig) error {
	n, k, seed := cfg.n, cfg.k, cfg.seed
	delta := cfg.delta
	if delta == 0 {
		delta = 2e-3 * math.Sqrt(104770.0/float64(n))
	}
	nn := cfg.nearby
	if nn < 1 {
		nn = 3
	}
	pts := dataset.CaliforniaLike(n, seed)
	profs := bench.ProfileMix(bench.ProfileMixMixed, n, k, delta, seed)
	bbox := func(members []int32) geo.Rect {
		r := geo.EmptyRect()
		for _, v := range members {
			r = r.ExpandToInclude(pts[v])
		}
		return r
	}
	mgr, err := epoch.New(n, epoch.WithK(k), epoch.WithWorkers(cfg.workers),
		epoch.WithAreaEstimator(func(members []int32) (float64, bool) {
			return bbox(members).Area(), true
		}))
	if err != nil {
		return err
	}
	defer mgr.Close()

	ctx := context.Background()
	g := wpg.Build(pts, wpg.BuildParams{Delta: delta, MaxPeers: 10})
	for v := int32(0); v < int32(n); v++ {
		var peers []epoch.RankedPeer
		for _, e := range g.Neighbors(v) {
			peers = append(peers, epoch.RankedPeer{Peer: e.To, Rank: e.W})
		}
		prof := profs[v] // zero for unprofiled users: the explicit default
		if err := mgr.Upload(ctx, epoch.UploadRequest{User: v, Peers: peers, Profile: &prof}); err != nil {
			return err
		}
	}
	if _, err := mgr.Rotate(ctx); err != nil {
		return err
	}
	if err := mgr.Sync(ctx); err != nil {
		return err
	}
	st := mgr.Status()
	fmt.Printf("profiles: %d users, k=%d, %d profiled (k_max=%d), %d edges, %d clusters, %d unclusterable\n",
		n, k, st.Profiled, st.KMax, st.Edges, st.Clusters, st.Skipped)

	// The LBS serves the population's own points as POIs — the standard
	// self-join stand-in when no separate POI set is configured.
	srv, err := lbs.NewServer(pts, 1)
	if err != nil {
		return err
	}

	tierOf := func(u int32) string {
		p, ok := profs[u]
		switch {
		case !ok:
			return "default"
		case p.MaxArea > 0:
			return "2k+area"
		default:
			return "2k"
		}
	}
	type tally struct {
		users, served, unclust, degraded int
		effK, area, cands                float64
	}
	tiers := map[string]*tally{"default": {}, "2k": {}, "2k+area": {}}
	for u := int32(0); u < int32(n); u++ {
		ty := tiers[tierOf(u)]
		ty.users++
		res, err := mgr.Cloak(ctx, u)
		if err != nil {
			ty.unclust++
			continue
		}
		ty.served++
		ty.effK += float64(res.EffectiveK)
		r := bbox(res.Cluster.Members)
		ty.area += r.Area()
		cands, _ := srv.RangeNNQuery(r, nn)
		ty.cands += float64(len(cands))
		if res.Degraded {
			ty.degraded++
		}
	}

	fmt.Printf("profiles: utility frontier (RangeNN k=%d, POIs = population points)\n", nn)
	fmt.Printf("%-10s %7s %7s %8s %10s %10s %9s\n",
		"tier", "users", "served", "eff_k", "area", "cands", "degraded")
	for _, name := range []string{"default", "2k", "2k+area"} {
		ty := tiers[name]
		div := float64(ty.served)
		if div == 0 {
			div = 1
		}
		fmt.Printf("%-10s %7d %7d %8.1f %10.3g %10.1f %9d\n",
			name, ty.users, ty.served, ty.effK/div, ty.area/div, ty.cands/div, ty.degraded)
	}
	return nil
}

// runFaults is the fault-injection mode: `count` generated scenarios
// starting at seed `base`, each checked against the full invariant
// registry. The per-kind summary shows how hard each fault class hit
// the protocols; any invariant violation dumps the deterministic
// transcript (re-runnable with -faultseed) and fails the command.
func runFaults(count int, base int64) error {
	type tally struct {
		scenarios, runs, clustered, bounded, degraded int
		lost                                          uint64
	}
	perKind := make(map[string]*tally)
	var violations int
	fmt.Printf("faults: %d scenarios from seed %d\n", count, base)
	for seed := base; seed < base+int64(count); seed++ {
		sc := sim.Generate(seed)
		rep, err := sim.Run(sc)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		ty := perKind[sc.Kind.String()]
		if ty == nil {
			ty = &tally{}
			perKind[sc.Kind.String()] = ty
		}
		ty.scenarios++
		ty.lost += rep.Lost
		for i := range rep.Runs {
			run := &rep.Runs[i]
			ty.runs++
			if run.ClusterErr == nil {
				ty.clustered++
			}
			if run.HasRect {
				ty.bounded++
			}
			if run.Degraded() {
				ty.degraded++
			}
		}
		if v := rep.Violations(); len(v) > 0 {
			violations += len(v)
			fmt.Printf("faults: scenario %s VIOLATED:\n", sc.Name)
			for _, msg := range v {
				fmt.Printf("  %s\n", msg)
			}
			fmt.Printf("  transcript (%d events):\n", len(rep.Transcript))
			for _, line := range rep.Transcript {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	for kind := sim.FaultNone; kind < sim.NumFaultKinds(); kind++ {
		ty := perKind[kind.String()]
		if ty == nil {
			continue
		}
		fmt.Printf("faults: %-10s %3d scenarios, %3d requests: %3d clustered, %3d bounded, %3d degraded, %6d lost msgs\n",
			kind, ty.scenarios, ty.runs, ty.clustered, ty.bounded, ty.degraded, ty.lost)
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	fmt.Println("faults: all invariants held")
	return nil
}

// runLoad is the load-generator mode: a centralized anonymizer serving
// `requests` cloak calls from `workers` concurrent clients, with hosts
// drawn from a Zipf(theta) popularity distribution so hot users are
// hammered the way real traffic hammers hot cells (theta 0 = uniform).
// The very first request triggers the component-parallel whole-graph
// clustering; everything after rides the registry read path.
func runLoad(n, k int, seed int64, delta float64, requests, workers int, theta float64) error {
	if workers < 1 {
		workers = 1
	}
	if delta == 0 {
		delta = 2e-3 * math.Sqrt(104770.0/float64(n))
	}
	pts := dataset.CaliforniaLike(n, seed)
	g := wpg.Build(pts, wpg.BuildParams{Delta: delta, MaxPeers: 10})
	fmt.Printf("load: %d users, %d proximity edges, %d components\n",
		g.NumVertices(), g.NumEdges(), len(g.Components()))

	// Draw the whole request stream up front (seeded: reruns replay the
	// same stream) and measure the skew we actually realized rather than
	// restating the theta parameter.
	hosts, err := workload.ZipfHosts(n, requests, theta, seed+1)
	if err != nil {
		return err
	}
	perHost := make(map[int32]int, n)
	for _, h := range hosts {
		perHost[h]++
	}
	counts := make([]int, 0, len(perHost))
	for _, c := range perHost {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := len(counts) / 100
	if top < 1 {
		top = 1
	}
	topShare := 0
	for _, c := range counts[:top] {
		topShare += c
	}
	fmt.Printf("load: zipf theta=%g request mix: %d distinct hosts, top 1%% of hosts take %.1f%% of requests\n",
		theta, len(perHost), 100*float64(topShare)/float64(requests))

	anon := anonymizer.NewServer(g, anonymizer.WithK(k))
	m := metrics.NewRequestMetrics()

	buildStart := time.Now()
	if _, cost, err := anon.Cloak(context.Background(), 0); err == nil {
		fmt.Printf("load: first request clustered the graph in %v (billed %d messages)\n",
			time.Since(buildStart), cost)
	} else {
		fmt.Printf("load: first request: %v\n", err)
	}

	var (
		wg     sync.WaitGroup
		failMu sync.Mutex
		fails  int
	)
	start := time.Now()
	per := requests / workers
	extra := requests % workers
	next := 0
	for w := 0; w < workers; w++ {
		count := per
		if w < extra {
			count++
		}
		mine := hosts[next : next+count]
		next += count
		wg.Add(1)
		go func(mine []int32) {
			defer wg.Done()
			for _, host := range mine {
				t0 := time.Now()
				_, _, err := anon.Cloak(context.Background(), host)
				m.Observe("cloak", time.Since(t0), err == nil)
				if err != nil {
					failMu.Lock()
					fails++
					failMu.Unlock()
				}
			}
		}(mine)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := m.Snapshot()
	fmt.Printf("load: %d requests from %d workers in %v (%.0f req/s)\n",
		snap.Total, workers, elapsed.Round(time.Millisecond), float64(snap.Total)/elapsed.Seconds())
	fmt.Printf("load: %d unclusterable hosts (undersized components)\n", fails)
	fmt.Printf("load: latency p50=%v p95=%v p99=%v\n", snap.P50, snap.P95, snap.P99)
	fmt.Printf("load: %d clusters cover %d of %d users\n",
		anon.Registry().NumClusters(), anon.Registry().NumAssigned(), n)
	return nil
}

func run(n, k, host int, seed int64, mode, bound string, delta float64, overNet bool, loss float64, nearby int, showTrace bool) error {
	cfg := cloak.DefaultConfig()
	cfg.K = k
	switch mode {
	case "distributed":
		cfg.Mode = cloak.ModeDistributed
	case "centralized":
		cfg.Mode = cloak.ModeCentralized
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	switch bound {
	case "secure":
		cfg.Bound = cloak.BoundSecure
	case "linear":
		cfg.Bound = cloak.BoundLinear
	case "exponential":
		cfg.Bound = cloak.BoundExponential
	case "optimal":
		cfg.Bound = cloak.BoundOptimal
	default:
		return fmt.Errorf("unknown bounding algorithm %q", bound)
	}
	if delta == 0 {
		// Keep the expected radio-neighbor count at the paper's default
		// regardless of population size.
		delta = 2e-3 * math.Sqrt(104770.0/float64(n))
	}
	cfg.Delta = delta

	pts := dataset.CaliforniaLike(n, seed)
	users := make([]cloak.Point, n)
	for i, p := range pts {
		users[i] = cloak.Point{X: p.X, Y: p.Y}
	}
	if host < 0 || host >= n {
		return fmt.Errorf("host %d out of range [0,%d)", host, n)
	}

	var (
		res error
		r   cloak.Result
	)
	if overNet {
		sys, err := cloak.NewNetworkSystem(users, cfg, cloak.NetworkConfig{
			LossRate: loss, MaxRetries: 50, Seed: seed,
		})
		if err != nil {
			return err
		}
		defer sys.Close()
		fmt.Printf("population: %d users, avg proximity degree %.1f (message network, loss=%.0f%%)\n",
			sys.NumUsers(), sys.AvgDegree(), loss*100)
		r, res = sys.Cloak(host)
		if res == nil {
			fmt.Printf("wire: %d transmissions, %d lost\n", sys.MessagesSent(), sys.MessagesLost())
		}
	} else {
		sys, err := cloak.NewSystem(users, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("population: %d users, avg proximity degree %.1f\n", sys.NumUsers(), sys.AvgDegree())
		if showTrace {
			sp := trace.New("request.cloak")
			r, res = sys.CloakCtx(trace.NewContext(context.Background(), sp), host)
			sp.End()
			fmt.Printf("trace:\n%s\n", sp)
		} else {
			r, res = sys.Cloak(host)
		}
	}
	if res != nil {
		return res
	}
	if showTrace && overNet {
		fmt.Println("trace: span tracing covers the in-process system only; rerun without -network")
	}

	fmt.Printf("host %d at (%.5f, %.5f)\n", host, users[host].X, users[host].Y)
	fmt.Printf("cluster: %d users (phase-1 cost: %d messages, cached=%v)\n",
		r.ClusterSize, r.ClusterComm, r.CachedCluster)
	fmt.Printf("cloaked region: [%.5f, %.5f] x [%.5f, %.5f], area %.3g\n",
		r.Region.MinX, r.Region.MaxX, r.Region.MinY, r.Region.MaxY, r.Region.Area())
	fmt.Printf("bounding: %.0f messages in %d rounds (%s, cached=%v)\n",
		r.BoundMessages, r.BoundRounds, bound, r.CachedRegion)
	if !r.Region.Contains(users[host]) {
		return fmt.Errorf("internal error: region does not contain the host")
	}

	if nearby > 0 {
		db, err := cloak.NewPOIDatabase(users, cfg.Cr)
		if err != nil {
			return err
		}
		cands, cost := db.NearestCandidates(r.Region, nearby)
		best := db.ResolveNearest(cands, users[host], nearby)
		fmt.Printf("service request: %d candidate POIs shipped (cost %.0f), %d resolved locally:\n",
			len(cands), cost, len(best))
		for _, id := range best {
			p := db.POI(id)
			fmt.Printf("  POI %d at (%.5f, %.5f)\n", id, p.X, p.Y)
		}
	}
	return nil
}

// runCluster is the multi-process acceptance workload: it brings up
// -shards cloakd shards (in this process, or as child processes when
// -cloakd-bin is given), fronts them with a routing coordinator, and
// drives the same churn+load shape as -churn — except every upload and
// cloak crosses the real v1 wire protocol and shard routing. After the
// churn it sweeps the full population so "unserved" is an exact count,
// not a sample: a user is unserved only if the cluster returned a hard
// error (legitimately sub-k components don't count — a single cloakd
// rejects those too). It finishes by scraping each shard's /metrics and
// printing the coordinator's routing counters.
func runCluster(cfg simConfig) error {
	n, k, seed := cfg.n, cfg.k, cfg.seed
	nShards := cfg.shards
	workers := cfg.workers
	if workers < 1 {
		workers = 1
	}
	ticks := cfg.churn
	if ticks == 0 {
		ticks = 2
	}
	frac := cfg.churnFrac
	delta := cfg.delta
	if delta == 0 {
		delta = 2e-3 * math.Sqrt(104770.0/float64(n))
	}
	pts := dataset.CaliforniaLike(n, seed)
	keys, err := cluster.HilbertKeys(pts, cluster.DefaultKeyOrder)
	if err != nil {
		return err
	}
	model, err := mobility.NewLocalWander(pts, delta, delta/4, delta/2, seed)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mode := "in-process"
	var shards []*cluster.Shard
	if cfg.cloakdBin != "" {
		mode = "child-process"
		shards, err = cluster.SpawnProcesses(ctx, cfg.cloakdBin, nShards,
			cluster.ShardConfig{NumUsers: n, K: k, Workers: workers})
	} else {
		shards, err = cluster.SpawnInProcess(ctx, nShards,
			cluster.ShardConfig{NumUsers: n, K: k, Workers: workers, Admin: true})
	}
	if err != nil {
		return err
	}
	defer cluster.CloseShards(shards)

	cm := metrics.NewClusterMetrics()
	copts := []cluster.Option{
		cluster.WithNumUsers(n),
		cluster.WithK(k),
		cluster.WithShardAddrs(cluster.Addrs(shards)...),
		cluster.WithKeys(keys),
		cluster.WithClusterMetrics(cm),
		cluster.WithDeadAfter(cfg.failoverAfter),
	}
	coord, err := cluster.New(copts...)
	if err != nil {
		return err
	}
	defer coord.Close()
	fmt.Printf("cluster: %d %s shards, population %d, k=%d, delta %.3g\n",
		nShards, mode, n, k, delta)

	uploadFrom := func(g *wpg.Graph, users []int32) error {
		for _, v := range users {
			var peers []service.PeerRank
			for _, e := range g.Neighbors(v) {
				peers = append(peers, service.PeerRank{Peer: e.To, Rank: e.W})
			}
			if err := coord.Upload(ctx, cluster.UploadRequest{User: v, Peers: peers}); err != nil {
				return fmt.Errorf("upload user %d: %w", v, err)
			}
		}
		return nil
	}

	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	t0 := time.Now()
	g := wpg.Build(model.Positions(), wpg.BuildParams{Delta: delta, MaxPeers: 10})
	if err := uploadFrom(g, all); err != nil {
		return err
	}
	st, err := coord.Rotate(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: epoch %d live in %v (%d edges, straddling=%d, %d border replays)\n",
		st.Epoch, time.Since(t0).Round(time.Millisecond), st.Edges, st.Straddling, st.Moves)

	// Crash drill: kill one shard after the first epoch is live. The rest
	// of the run must degrade to retries, never hard failures, and end
	// with every user served by the survivors.
	failedOver := 0
	if cfg.killShard >= 0 {
		fmt.Printf("cluster: killing shard %d (%s)\n", cfg.killShard, shards[cfg.killShard].Addr)
		_ = shards[cfg.killShard].Kill()
	}

	// Concurrent cloak hammer for the whole churn phase, like -churn but
	// through the coordinator.
	var (
		wg                   sync.WaitGroup
		served, unclust, bad atomic.Int64
	)
	reqm := metrics.NewRequestMetrics()
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			host := int32(w * 2654435761 % n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				host = int32((int64(host)*48271 + 1) % int64(n))
				t0 := time.Now()
				_, err := coord.Cloak(context.Background(), host)
				reqm.Observe("cloak", time.Since(t0), err == nil)
				switch {
				case err == nil:
					served.Add(1)
				case strings.Contains(err.Error(), "smaller than k"):
					unclust.Add(1)
				default:
					bad.Add(1)
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(seed))
	perTick := int(frac * float64(n))
	if perTick < 1 {
		perTick = 1
	}
	for tick := 1; tick <= ticks; tick++ {
		model.Step(1)
		g := wpg.Build(model.Positions(), wpg.BuildParams{Delta: delta, MaxPeers: 10})
		moved := rng.Perm(n)[:perTick]
		users := make([]int32, perTick)
		for i, u := range moved {
			users[i] = int32(u)
		}
		if err := uploadFrom(g, users); err != nil {
			close(stop)
			wg.Wait()
			return err
		}
		st, err := coord.Rotate(ctx)
		if err != nil {
			close(stop)
			wg.Wait()
			return err
		}
		failedOver += st.FailedOver
		fmt.Printf("cluster: tick %d rotated to epoch %d (%d users re-homed)\n",
			tick, st.Epoch, st.Moves)
	}

	// After a kill, keep rotating (cloak load still running) until a
	// rotation declares the shard dead and re-homes its users.
	if cfg.killShard >= 0 {
		deadline := time.Now().Add(30 * time.Second)
		for failedOver == 0 && time.Now().Before(deadline) {
			time.Sleep(250 * time.Millisecond)
			st, err := coord.Rotate(ctx)
			if err != nil {
				close(stop)
				wg.Wait()
				return err
			}
			failedOver += st.FailedOver
		}
		if failedOver == 0 {
			close(stop)
			wg.Wait()
			return fmt.Errorf("shard %d was killed but never failed over", cfg.killShard)
		}
		fmt.Printf("cluster: failed over %d users off dead shard %d\n", failedOver, cfg.killShard)
	}
	close(stop)
	wg.Wait()

	total := served.Load() + unclust.Load() + bad.Load()
	snap := reqm.Snapshot()
	fmt.Printf("cluster: churn load %d cloaks from %d workers: %d served, %d unclusterable, %d hard failures\n",
		total, workers, served.Load(), unclust.Load(), bad.Load())
	fmt.Printf("cluster: cloak latency p50=%v p95=%v p99=%v\n", snap.P50, snap.P95, snap.P99)

	// Full-population sweep: every user must be either served or
	// legitimately sub-k. Anything else counts as unserved.
	var swServed, swUnclust, swBad atomic.Int64
	var swg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		swg.Add(1)
		go func(lo, hi int32) {
			defer swg.Done()
			for u := lo; u < hi; u++ {
				_, err := coord.Cloak(context.Background(), u)
				switch {
				case err == nil:
					swServed.Add(1)
				case strings.Contains(err.Error(), "smaller than k"):
					swUnclust.Add(1)
				default:
					swBad.Add(1)
				}
			}
		}(int32(lo), int32(hi))
	}
	swg.Wait()
	fmt.Printf("cluster: sweep of all %d users: %d served, %d unclusterable, unserved=%d\n",
		n, swServed.Load(), swUnclust.Load(), swBad.Load())

	// Per-shard view, over each shard's own admin endpoint.
	for i, s := range shards {
		if s.AdminAddr == "" {
			continue
		}
		if i == cfg.killShard {
			fmt.Printf("cluster: shard %d (%s): killed, no scrape\n", i, s.Addr)
			continue
		}
		reqs, errs, swaps, err := scrapeShard(s.AdminAddr)
		if err != nil {
			fmt.Printf("cluster: shard %d /metrics: %v\n", i, err)
			continue
		}
		fmt.Printf("cluster: shard %d (%s): %d requests, %d errors, %d epoch swaps\n",
			i, s.Addr, reqs, errs, swaps)
	}
	cs := cm.Snapshot()
	fmt.Printf("cluster: coordinator %s\n", cs)
	for _, op := range cs.Routed {
		fmt.Printf("cluster: routed %s=%d\n", op.Op, op.Count)
	}

	if err := coord.Close(); err != nil {
		return err
	}
	if err := cluster.CloseShards(shards); err != nil {
		return err
	}
	fmt.Println("cluster: clean shutdown")
	if nBad := bad.Load() + swBad.Load(); nBad > 0 {
		return fmt.Errorf("%d cloaks failed hard", nBad)
	}
	return nil
}

// scrapeShard fetches one shard's Prometheus /metrics page and folds it
// to the three numbers the cluster report prints: total requests, total
// request errors, and completed epoch swaps.
func scrapeShard(adminAddr string) (reqs, errs, swaps uint64, err error) {
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, perr := strconv.ParseUint(fields[1], 10, 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(fields[0], "cloakd_requests_total{"):
			reqs += v
		case strings.HasPrefix(fields[0], "cloakd_request_errors_total{"):
			errs += v
		case fields[0] == "cloakd_epoch_swaps_total":
			swaps = v
		}
	}
	return reqs, errs, swaps, nil
}
