// Command cloaksim runs one end-to-end non-exposure cloaking request on a
// synthetic population and prints what happened: the cluster, the cloaked
// region, and the two phases' communication costs.
//
// The other modes run the workload phases of internal/workload, the
// ones the experiment grid (internal/bench) runs: the CaliforniaLike
// population at the radio range that keeps Table I's neighbour count,
// devices uploading their ranked WPG peers, a seeded fraction of movers
// re-uploading each tick, and a Zipf-skewed request replay split across
// -workers clients.
//
// With -load it acts as a load generator: the Zipf(-theta) replay of
// -load cloak requests (0 = uniform) against an in-process centralized
// anonymizer, reporting throughput, latency percentiles, and the
// realized skew.
//
// With -churn it drives the epoch re-clustering pipeline under a mobile
// population: each tick the users move (local-wander mobility), the
// movers re-upload their proximity rankings and a new epoch is rotated
// in, while concurrent cloak clients measure availability across the
// generation swaps; a sweep of the whole population ends the run.
// -cluster runs the same loop against a sharded cloakd cluster behind a
// routing coordinator, every upload and cloak crossing the wire.
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
//	cloaksim -cluster -shards 2 -n 2000 -k 5 -churn 2
//	cloaksim -faults 500 -faultseed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	if c.cluster {
		if c.profiles || c.faults > 0 {
			return fmt.Errorf("-cluster cannot be combined with -profiles or -faults")
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
	if (c.churn > 0 || c.cluster) && (c.churnFrac <= 0 || c.churnFrac > 1) {
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
	flag.IntVar(&cfg.workers, "workers", 16, "concurrent cloak clients for -load, -churn and -cluster, and clustering workers per epoch build")
	flag.IntVar(&cfg.churn, "churn", 0, "churn mode: run this many mobility ticks through the epoch pipeline (0 = off)")
	flag.Float64Var(&cfg.churnFrac, "churnfrac", 0.2, "fraction of users re-uploading per churn tick")
	flag.IntVar(&cfg.faults, "faults", 0, "fault-injection mode: run this many seeded fault scenarios (0 = off)")
	flag.Int64Var(&cfg.faultSeed, "faultseed", 1, "first scenario seed for -faults")
	flag.BoolVar(&cfg.showTrace, "trace", false, "print the span tree of the cloak request (single-request mode)")
	flag.Float64Var(&cfg.theta, "theta", 0.8, "Zipf skew of the request mix for -load")
	flag.BoolVar(&cfg.profiles, "profiles", false, "utility-frontier mode: run the mixed privacy-profile tier mix through the epoch pipeline and report per-tier cloak area vs candidate-set size")
	flag.BoolVar(&cfg.cluster, "cluster", false, "cluster mode: bring up a sharded cloakd cluster behind a routing coordinator and run the -churn loop against it (0 -churn ticks = 2)")
	flag.IntVar(&cfg.shards, "shards", 2, "shard count for -cluster")
	flag.StringVar(&cfg.cloakdBin, "cloakd-bin", "", "path to a cloakd binary for -cluster: spawn shards as separate OS processes (empty = in-process shards)")
	flag.IntVar(&cfg.killShard, "kill-shard", -1, "with -cluster: kill this shard after the first epoch and require fail-over to recover every user (-1 = off)")
	flag.DurationVar(&cfg.failoverAfter, "failover-after", cluster.DefaultDeadAfter, "with -cluster: declare a shard that has failed this long dead at the next rotation and re-home its users onto survivors (must be > 0)")
	flag.Parse()
	err := cfg.validate()
	if err == nil {
		if cfg.delta == 0 {
			cfg.delta = dataset.DeltaFor(cfg.n)
		}
		switch {
		case cfg.cluster:
			err = runCluster(cfg)
		case cfg.profiles:
			err = runProfiles(cfg)
		case cfg.faults > 0:
			err = runFaults(cfg.faults, cfg.faultSeed)
		case cfg.churn > 0:
			err = runChurn(cfg)
		case cfg.load > 0:
			err = runLoad(cfg)
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

// target is what the churn-under-load loop drives: one process's epoch
// pipeline (-churn) or a routing coordinator in front of shards
// (-cluster).
type target interface {
	upload(ctx context.Context, user int32, peers []epoch.RankedPeer) error
	// rotate builds an epoch over every upload so far and returns once
	// it serves.
	rotate(ctx context.Context) (rotation, error)
	// cloak answers one request and names the epoch that served it.
	cloak(ctx context.Context, host int32) (uint64, error)
}

// rotation is what one rotate reports.
type rotation struct {
	epoch      uint64
	edges      int
	failedOver int    // users re-homed off shards declared dead
	detail     string // the target's own accounting, for the report
}

// single is the -churn target.
type single struct {
	*epoch.Manager
	em *metrics.EpochMetrics
}

func newSingle(cfg simConfig) (single, error) {
	em := metrics.NewEpochMetrics()
	mgr, err := epoch.New(cfg.n, epoch.WithK(cfg.k), epoch.WithWorkers(cfg.workers), epoch.WithMetrics(em))
	return single{mgr, em}, err
}

func (s single) upload(ctx context.Context, user int32, peers []epoch.RankedPeer) error {
	return s.Upload(ctx, epoch.UploadRequest{User: user, Peers: peers})
}

func (s single) rotate(ctx context.Context) (rotation, error) {
	gen, err := s.RotateAndWait(ctx)
	if err != nil {
		return rotation{}, err
	}
	if gen.BuildErr != nil {
		return rotation{}, gen.BuildErr
	}
	return rotation{epoch: gen.Epoch, edges: gen.Edges,
		detail: fmt.Sprintf("%d of %d components re-clustered", gen.ShardsRebuilt, gen.ShardsTotal)}, nil
}

func (s single) cloak(ctx context.Context, host int32) (uint64, error) {
	res, err := s.Cloak(ctx, host)
	return res.Epoch, err
}

// coordinated is the -cluster target.
type coordinated struct{ *cluster.Coordinator }

func (c coordinated) upload(ctx context.Context, user int32, peers []epoch.RankedPeer) error {
	return c.Upload(ctx, cluster.UploadRequest{User: user, Peers: peers})
}

func (c coordinated) rotate(ctx context.Context) (rotation, error) {
	st, err := c.Rotate(ctx)
	return rotation{epoch: st.Epoch, edges: st.Edges, failedOver: st.FailedOver,
		detail: fmt.Sprintf("straddling=%d, %d border replays", st.Straddling, st.Moves)}, err
}

func (c coordinated) cloak(ctx context.Context, host int32) (uint64, error) {
	p, err := c.Cloak(ctx, host)
	if err != nil {
		return 0, err
	}
	return p.Epoch, nil
}

// churnResult is the outcome of one churn-under-load run.
type churnResult struct {
	hammer, sweep workload.Tally
}

// err fails the run on any hard cloak failure.
func (r churnResult) err() error {
	if bad := r.hammer.Failed + r.sweep.Failed; bad > 0 {
		return fmt.Errorf("%d cloaks failed hard", bad)
	}
	return nil
}

// churnLoad is the churn-under-load loop of -churn and -cluster: upload
// every user of pop and rotate; start the cloak hammer; run cfg.churn
// ticks, each moving the users, re-uploading the movers and rotating;
// stop the hammer; then sweep the whole population, so "unserved" is an
// exact count, not a sample: a user is unserved only if the target
// answered with a hard error (a sub-k refusal is the right answer for a
// user in a component smaller than k). Report lines start with name. A
// non-nil drill kills its shard once the first epoch serves and keeps
// the hammer running until the shard has failed over.
func churnLoad(ctx context.Context, cfg simConfig, pop *workload.Population, name string, t target, drill *killDrill) (churnResult, error) {
	uploadFrom := func(g *wpg.Graph, users []int32) error {
		for _, v := range users {
			if err := t.upload(ctx, v, workload.Peers(g, v)); err != nil {
				return fmt.Errorf("upload user %d: %w", v, err)
			}
		}
		return nil
	}

	t0 := time.Now()
	if err := uploadFrom(pop.Graph(), pop.Users()); err != nil {
		return churnResult{}, err
	}
	rot, err := t.rotate(ctx)
	if err != nil {
		return churnResult{}, err
	}
	fmt.Printf("%s: epoch %d live in %v (%d edges, %s)\n",
		name, rot.epoch, time.Since(t0).Round(time.Millisecond), rot.edges, rot.detail)
	if drill != nil {
		drill.kill()
	}

	h := startHammer(ctx, t, cfg.n, cfg.workers)
	defer h.halt()
	failedOver := 0
	for tick := 1; tick <= cfg.churn; tick++ {
		g, movers := pop.Tick(cfg.churnFrac)
		if err := uploadFrom(g, movers); err != nil {
			return churnResult{}, err
		}
		rot, err := t.rotate(ctx)
		if err != nil {
			return churnResult{}, err
		}
		failedOver += rot.failedOver
		fmt.Printf("%s: tick %d re-uploaded %d movers, rotated to epoch %d (%d edges, %s)\n",
			name, tick, len(movers), rot.epoch, rot.edges, rot.detail)
	}
	if drill != nil {
		if err := drill.await(ctx, t, failedOver); err != nil {
			return churnResult{}, err
		}
	}
	h.halt()

	res := churnResult{hammer: h.tally}
	snap := h.rm.Snapshot()
	fmt.Printf("%s: churn load %d cloaks from %d workers across epochs %d..%d: availability %.3f%% (%d served, %d unclusterable, %d hard failures)\n",
		name, res.hammer.Total(), cfg.workers, h.minEp, h.maxEp,
		100*float64(res.hammer.Served)/float64(max(res.hammer.Total(), 1)),
		res.hammer.Served, res.hammer.Unclusterable, res.hammer.Failed)
	fmt.Printf("%s: cloak latency p50=%v p95=%v p99=%v\n", name, snap.P50, snap.P95, snap.P99)

	res.sweep = workload.Replay(pop.Users(), cfg.workers, nil, func(u int32) error {
		_, err := t.cloak(ctx, u)
		return err
	})
	fmt.Printf("%s: sweep of all %d users: %d served, %d unclusterable, unserved=%d\n",
		name, cfg.n, res.sweep.Served, res.sweep.Unclusterable, res.sweep.Failed)
	return res, nil
}

// hammer is the cloak load that runs through the churn: each of its
// workers cloaks its own pseudo-random host sequence back to back.
type hammer struct {
	stop     chan struct{}
	haltOnce sync.Once
	wg       sync.WaitGroup
	rm       *metrics.RequestMetrics

	mu           sync.Mutex
	tally        workload.Tally
	minEp, maxEp uint64
}

func startHammer(ctx context.Context, t target, n, workers int) *hammer {
	h := &hammer{stop: make(chan struct{}), rm: metrics.NewRequestMetrics()}
	for w := 0; w < workers; w++ {
		h.wg.Add(1)
		go func(w int) {
			defer h.wg.Done()
			var (
				tally        workload.Tally
				minEp, maxEp uint64 // epochs are 1-based: 0 = none served yet
			)
			host := int32(w * 2654435761 % n)
			for {
				select {
				case <-h.stop:
					h.mu.Lock()
					h.tally.Merge(tally)
					if minEp != 0 && (h.minEp == 0 || minEp < h.minEp) {
						h.minEp = minEp
					}
					h.maxEp = max(h.maxEp, maxEp)
					h.mu.Unlock()
					return
				default:
				}
				host = int32((int64(host)*48271 + 1) % int64(n))
				t0 := time.Now()
				ep, err := t.cloak(ctx, host)
				h.rm.Observe("cloak", time.Since(t0), err == nil)
				tally.Add(err)
				if err == nil {
					if minEp == 0 || ep < minEp {
						minEp = ep
					}
					maxEp = max(maxEp, ep)
				}
			}
		}(w)
	}
	return h
}

// halt stops the hammer and waits for its workers; later calls do
// nothing.
func (h *hammer) halt() {
	h.haltOnce.Do(func() {
		close(h.stop)
		h.wg.Wait()
	})
}

// killDrill is -kill-shard: kill one shard once the first epoch serves,
// then, after the ticks and with the hammer still running, keep
// rotating until a rotation declares the shard dead and fails its users
// over. The rest of the run must degrade to retries, never hard
// failures, and end with every user served by the survivors.
type killDrill struct {
	index int
	shard *cluster.Shard
}

func (d *killDrill) kill() {
	fmt.Printf("cluster: killing shard %d (%s)\n", d.index, d.shard.Addr)
	_ = d.shard.Kill() // a kill that did not take fails await instead
}

func (d *killDrill) await(ctx context.Context, t target, failedOver int) error {
	deadline := time.Now().Add(30 * time.Second)
	for failedOver == 0 && time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		rot, err := t.rotate(ctx)
		if err != nil {
			return err
		}
		failedOver += rot.failedOver
	}
	if failedOver == 0 {
		return fmt.Errorf("shard %d was killed but never failed over", d.index)
	}
	fmt.Printf("cluster: failed over %d users off dead shard %d\n", failedOver, d.index)
	return nil
}

// runChurn is -churn: the churn-under-load loop against one process's
// epoch pipeline, then the pipeline's own build accounting.
func runChurn(cfg simConfig) error {
	pop, err := workload.NewPopulation(cfg.n, cfg.delta, cfg.seed)
	if err != nil {
		return err
	}
	s, err := newSingle(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Printf("churn: single process, population %d, k=%d, delta %.3g\n", cfg.n, cfg.k, cfg.delta)
	res, err := churnLoad(context.Background(), cfg, pop, "churn", s, nil)
	if err != nil {
		return err
	}
	es := s.em.Snapshot()
	fmt.Printf("churn: pipeline %s\n", es)
	if es.ShardsTotal > 0 {
		fmt.Printf("churn: shard reuse %.1f%% (%d of %d shards spliced from the previous generation)\n",
			100*(1-float64(es.ShardsRebuilt)/float64(es.ShardsTotal)),
			es.ShardsTotal-es.ShardsRebuilt, es.ShardsTotal)
	}
	return res.err()
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
	nn := cfg.nearby
	if nn < 1 {
		nn = 3
	}
	pop, err := workload.NewPopulation(n, cfg.delta, seed)
	if err != nil {
		return err
	}
	pts := pop.Model.Positions() // nobody moves: the population stays home
	profs := bench.ProfileMix(bench.ProfileMixMixed, n, k, cfg.delta, seed)
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
	g := pop.Graph()
	for _, v := range pop.Users() {
		prof := profs[v] // zero for unprofiled users: the explicit default
		if err := mgr.Upload(ctx, epoch.UploadRequest{User: v, Peers: workload.Peers(g, v), Profile: &prof}); err != nil {
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

// runLoad is the load-generator mode: the Zipf(theta) replay of
// -load cloak requests from -workers concurrent clients against a
// centralized anonymizer, so hot users are hammered the way real
// traffic hammers hot cells (theta 0 = uniform). The anonymizer is
// built (the component-parallel whole-graph clustering) and timed
// before the replay, so every replayed request is a registry read.
func runLoad(cfg simConfig) error {
	pop, err := workload.NewPopulation(cfg.n, cfg.delta, cfg.seed)
	if err != nil {
		return err
	}
	g := pop.Graph()
	fmt.Printf("load: %d users, %d proximity edges, %d components\n",
		g.NumVertices(), g.NumEdges(), len(g.Components()))

	// Draw the whole request stream up front (seeded: reruns replay the
	// same stream) and measure the skew we actually realized rather than
	// restating the theta parameter.
	hosts, err := workload.ZipfHosts(cfg.n, cfg.load, cfg.theta, cfg.seed+1)
	if err != nil {
		return err
	}
	perHost := make(map[int32]int, cfg.n)
	for _, h := range hosts {
		perHost[h]++
	}
	counts := make([]int, 0, len(perHost))
	for _, c := range perHost {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := max(len(counts)/100, 1)
	topShare := 0
	for _, c := range counts[:top] {
		topShare += c
	}
	fmt.Printf("load: zipf theta=%g request mix: %d distinct hosts, top 1%% of hosts take %.1f%% of requests\n",
		cfg.theta, len(perHost), 100*float64(topShare)/float64(cfg.load))

	ctx := context.Background()
	buildStart := time.Now()
	anon, err := anonymizer.Build(ctx, g, cfg.k, 0)
	if err != nil {
		return err
	}
	fmt.Printf("load: clustered the graph in %v (the first served request is billed %d messages)\n",
		time.Since(buildStart), g.NumVertices())

	m := metrics.NewRequestMetrics()
	start := time.Now()
	tally := workload.Replay(hosts, cfg.workers, m, func(host int32) error {
		_, _, err := anon.Cloak(ctx, host)
		return err
	})
	elapsed := time.Since(start)

	snap := m.Snapshot()
	fmt.Printf("load: %d requests from %d workers in %v (%.0f req/s)\n",
		snap.Total, cfg.workers, elapsed.Round(time.Millisecond), float64(snap.Total)/elapsed.Seconds())
	fmt.Printf("load: %d unclusterable requests (undersized components), %d hard failures\n",
		tally.Unclusterable, tally.Failed)
	fmt.Printf("load: latency p50=%v p95=%v p99=%v\n", snap.P50, snap.P95, snap.P99)
	fmt.Printf("load: %d clusters cover %d of %d users\n",
		anon.Registry().NumClusters(), anon.Registry().NumAssigned(), cfg.n)
	if tally.Failed > 0 {
		return fmt.Errorf("%d cloaks failed hard, first: %w", tally.Failed, tally.Err)
	}
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

// runCluster is -cluster, the multi-process acceptance workload: it
// brings up -shards cloakd shards (in this process, or as child
// processes when -cloakd-bin is given), fronts them with a routing
// coordinator, and runs the churn-under-load loop of -churn against it,
// so every upload and cloak crosses the real v1 wire protocol and shard
// routing. It finishes by scraping each shard's /metrics and printing
// the coordinator's routing counters.
func runCluster(cfg simConfig) error {
	pop, err := workload.NewPopulation(cfg.n, cfg.delta, cfg.seed)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := startCluster(ctx, cfg, pop.Model.Positions())
	if err != nil {
		return err
	}
	defer c.close()

	if cfg.churn == 0 {
		cfg.churn = 2
	}
	var drill *killDrill
	if cfg.killShard >= 0 {
		drill = &killDrill{index: cfg.killShard, shard: c.shards[cfg.killShard]}
	}
	res, err := churnLoad(ctx, cfg, pop, "cluster", coordinated{c.coord}, drill)
	if err != nil {
		return err
	}

	// Per-shard view, over each shard's own admin endpoint.
	for i, s := range c.shards {
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
	cs := c.cm.Snapshot()
	fmt.Printf("cluster: coordinator %s\n", cs)
	for _, op := range cs.Routed {
		fmt.Printf("cluster: routed %s=%d\n", op.Op, op.Count)
	}

	if err := c.close(); err != nil {
		return err
	}
	fmt.Println("cluster: clean shutdown")
	return res.err()
}

// runningCluster is -cluster's system under test: the shards and the
// coordinator in front of them.
type runningCluster struct {
	shards []*cluster.Shard
	coord  *cluster.Coordinator
	cm     *metrics.ClusterMetrics
}

// startCluster spawns the shards and starts the coordinator, which
// places users by the Hilbert keys of their home positions.
func startCluster(ctx context.Context, cfg simConfig, home []geo.Point) (*runningCluster, error) {
	keys, err := cluster.HilbertKeys(home, cluster.DefaultKeyOrder)
	if err != nil {
		return nil, err
	}
	mode := "in-process"
	var shards []*cluster.Shard
	if cfg.cloakdBin != "" {
		mode = "child-process"
		shards, err = cluster.SpawnProcesses(ctx, cfg.cloakdBin, cfg.shards,
			cluster.ShardConfig{NumUsers: cfg.n, K: cfg.k, Workers: cfg.workers})
	} else {
		shards, err = cluster.SpawnInProcess(ctx, cfg.shards,
			cluster.ShardConfig{NumUsers: cfg.n, K: cfg.k, Workers: cfg.workers, Admin: true})
	}
	if err != nil {
		return nil, err
	}
	cm := metrics.NewClusterMetrics()
	coord, err := cluster.New(
		cluster.WithNumUsers(cfg.n),
		cluster.WithK(cfg.k),
		cluster.WithShardAddrs(cluster.Addrs(shards)...),
		cluster.WithKeys(keys),
		cluster.WithClusterMetrics(cm),
		cluster.WithDeadAfter(cfg.failoverAfter),
	)
	if err != nil {
		cluster.CloseShards(shards)
		return nil, err
	}
	fmt.Printf("cluster: %d %s shards, population %d, k=%d, delta %.3g\n",
		cfg.shards, mode, cfg.n, cfg.k, cfg.delta)
	return &runningCluster{shards: shards, coord: coord, cm: cm}, nil
}

// close stops the coordinator, then the shards; both are idempotent.
func (c *runningCluster) close() error {
	err := c.coord.Close()
	if serr := cluster.CloseShards(c.shards); err == nil {
		err = serr
	}
	return err
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
