// Command cloakd runs the anonymizer as a TCP service speaking the
// line-delimited JSON protocol of internal/service (see PROTOCOL.md):
// devices upload proximity rankings, epochs rebuild in the background
// per the configured policy (or on explicit freeze/rotate), and cloak
// requests are answered with k-anonymity clusters from the current
// epoch. With -demo, the command also simulates a device population
// that uploads, freezes, and issues a few cloaking requests against the
// freshly started server, so the whole flow can be watched end to end.
//
// With -admin, a second HTTP listener serves the operator endpoints:
// Prometheus /metrics, JSON /healthz and /epochz, /tracez span trees
// (enable with -trace), and /debug/pprof/.
//
// With -coordinator, cloakd runs as the front of a sharded cluster
// instead of a single anonymizer: it spawns -shards in-process shards
// (or routes to externally started cloakd processes named by
// -shard-addrs), partitions users across them, and speaks the same wire
// protocol on -addr, so clients cannot tell a cluster from one server.
// See "Cluster tier" in DESIGN.md.
//
// Usage:
//
//	cloakd -addr 127.0.0.1:7464 -n 104770 -k 10
//	cloakd -addr 127.0.0.1:7464 -n 50000 -rebuild-uploads 10000
//	cloakd -addr 127.0.0.1:7464 -admin 127.0.0.1:6060 -trace 64
//	cloakd -demo -n 5000 -k 10
//	cloakd -coordinator -shards 4 -n 104770 -k 10 -admin 127.0.0.1:6060
//	cloakd -coordinator -shard-addrs 10.0.0.1:7464,10.0.0.2:7464 -n 104770
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"nonexposure/internal/admin"
	"nonexposure/internal/cluster"
	"nonexposure/internal/dataset"
	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
	"nonexposure/internal/trace"
	"nonexposure/internal/workload"
)

// config is everything main parses from flags, separated so validation
// is testable without touching the flag package or the network.
type config struct {
	addr          string
	adminAddr     string
	n             int
	k             int
	workers       int
	everyN        int
	frac          float64
	maxStale      time.Duration
	traceCap      int
	demo          bool
	seed          int64
	coordinator   bool
	shards        int
	shardAddrs    string
	failoverAfter time.Duration
}

// validate rejects flag combinations before any socket is opened, so a
// typo fails fast with a message naming the flag instead of a confusing
// runtime error (or, worse, a silently wrong policy).
func (c config) validate() error {
	if c.n < 1 {
		return fmt.Errorf("-n must be >= 1, got %d", c.n)
	}
	if c.k < 1 {
		return fmt.Errorf("-k must be >= 1, got %d", c.k)
	}
	if c.k > c.n {
		return fmt.Errorf("-k %d exceeds the population -n %d", c.k, c.n)
	}
	if c.everyN < 0 {
		return fmt.Errorf("-rebuild-uploads must be >= 0, got %d", c.everyN)
	}
	if c.frac < 0 || c.frac > 1 {
		return fmt.Errorf("-rebuild-frac must be in [0,1], got %g", c.frac)
	}
	if c.maxStale < 0 {
		return fmt.Errorf("-max-staleness must be >= 0, got %v", c.maxStale)
	}
	if c.traceCap < 0 {
		return fmt.Errorf("-trace must be >= 0, got %d", c.traceCap)
	}
	if c.coordinator {
		if c.demo {
			return fmt.Errorf("-coordinator and -demo are mutually exclusive")
		}
		if c.shardAddrs == "" && c.shards < 1 {
			return fmt.Errorf("-shards must be >= 1 with -coordinator, got %d", c.shards)
		}
		if c.frac != 0 || c.maxStale != 0 || c.traceCap != 0 {
			return fmt.Errorf("-coordinator only routes; rebuild tuning flags (-rebuild-frac, -max-staleness, -trace) belong on the shard processes")
		}
	} else if c.shardAddrs != "" {
		return fmt.Errorf("-shard-addrs requires -coordinator")
	}
	if c.failoverAfter <= 0 {
		return fmt.Errorf("-failover-after must be > 0, got %v", c.failoverAfter)
	}
	if c.failoverAfter != cluster.DefaultDeadAfter && !c.coordinator {
		return fmt.Errorf("-failover-after requires -coordinator")
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7464", "listen address")
	flag.StringVar(&cfg.adminAddr, "admin", "", "admin HTTP address for /metrics, /healthz, /epochz, /tracez, /debug/pprof (empty = disabled)")
	flag.IntVar(&cfg.n, "n", 104770, "population size the server accepts")
	flag.IntVar(&cfg.k, "k", 10, "anonymity level")
	flag.IntVar(&cfg.workers, "workers", 0, "clustering workers per rebuild (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.everyN, "rebuild-uploads", 0, "rebuild after this many uploads (0 = disabled)")
	flag.Float64Var(&cfg.frac, "rebuild-frac", 0, "rebuild once this fraction of users changed (0 = disabled)")
	flag.DurationVar(&cfg.maxStale, "max-staleness", 0, "rebuild when uploads have waited this long without another trigger (0 = disabled)")
	flag.IntVar(&cfg.traceCap, "trace", 0, "record span trees for the most recent N requests/builds, served at /tracez (0 = off)")
	flag.BoolVar(&cfg.demo, "demo", false, "run a self-contained demo population against the server and exit")
	flag.Int64Var(&cfg.seed, "seed", 42, "demo dataset seed")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "run as a cluster coordinator routing to shards instead of a single anonymizer")
	flag.IntVar(&cfg.shards, "shards", 2, "in-process shard count with -coordinator (ignored when -shard-addrs is given)")
	flag.StringVar(&cfg.shardAddrs, "shard-addrs", "", "comma-separated addresses of externally started cloakd shards to route to (with -coordinator)")
	flag.DurationVar(&cfg.failoverAfter, "failover-after", cluster.DefaultDeadAfter, "with -coordinator: declare a shard that has failed this long dead at the next rotation and re-home its users onto survivors (must be > 0)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cloakd:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.coordinator {
		return runCoordinator(cfg)
	}
	policy := epoch.Policy{EveryUploads: cfg.everyN, ChangedFrac: cfg.frac, MaxStaleness: cfg.maxStale}
	em := metrics.NewEpochMetrics()
	opts := []service.Option{
		service.WithNumUsers(cfg.n),
		service.WithK(cfg.k),
		service.WithWorkers(cfg.workers),
		service.WithEpochOptions(epoch.WithPolicy(policy)),
		service.WithMetrics(em),
	}
	if cfg.traceCap > 0 {
		opts = append(opts, service.WithTraceRecorder(trace.NewRecorder(cfg.traceCap)))
	}
	srv, err := service.New(opts...)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	bound, err := srv.Listen(ctx, cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("cloakd: anonymizer listening on %s (population %d, k=%d, rebuild policy %s)\n",
		bound, cfg.n, cfg.k, policy)

	var adminSrv *http.Server
	if cfg.adminAddr != "" {
		l, err := net.Listen("tcp", cfg.adminAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("admin listen: %w", err)
		}
		adminSrv = &http.Server{Handler: admin.New(srv)}
		go func() {
			if err := adminSrv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "cloakd: admin server:", err)
			}
		}()
		fmt.Printf("cloakd: admin listening on %s\n", l.Addr())
	}

	report := func() {
		if adminSrv != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			adminSrv.Shutdown(sctx) //nolint:errcheck // best effort on the way out
			cancel()
		}
		fmt.Printf("cloakd: final request metrics: %s\n", srv.Metrics().Snapshot())
		fmt.Printf("cloakd: final epoch metrics: %s\n", em.Snapshot())
	}
	if !cfg.demo {
		// Serve until interrupted.
		<-ctx.Done()
		fmt.Println("cloakd: shutting down")
		err := srv.Close()
		report()
		return err
	}
	defer func() {
		srv.Close()
		report()
	}()
	return runDemo(bound.String(), cfg.n, cfg.k, cfg.seed)
}

// runCoordinator is the -coordinator serving path: spawn (or connect
// to) the shards, front them with a routing coordinator speaking the
// standard wire protocol, and serve until interrupted. The admin
// listener exposes the cloakd_cluster_* series instead of the
// single-process pipeline metrics — per-shard pipeline metrics live on
// the shards' own admin endpoints.
func runCoordinator(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		addrs  []string
		shards []*cluster.Shard
		err    error
	)
	if cfg.shardAddrs != "" {
		for _, a := range strings.Split(cfg.shardAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	} else {
		shards, err = cluster.SpawnInProcess(ctx, cfg.shards, cluster.ShardConfig{
			NumUsers: cfg.n, K: cfg.k, Workers: cfg.workers, Admin: cfg.adminAddr != "",
		})
		if err != nil {
			return err
		}
		defer cluster.CloseShards(shards) //nolint:errcheck // also closed explicitly below
		addrs = cluster.Addrs(shards)
		for i, s := range shards {
			if s.AdminAddr != "" {
				fmt.Printf("cloakd: shard %d on %s (admin %s)\n", i, s.Addr, s.AdminAddr)
			} else {
				fmt.Printf("cloakd: shard %d on %s\n", i, s.Addr)
			}
		}
	}

	cm := metrics.NewClusterMetrics()
	opts := []cluster.Option{
		cluster.WithNumUsers(cfg.n),
		cluster.WithK(cfg.k),
		cluster.WithShardAddrs(addrs...),
		cluster.WithClusterMetrics(cm),
		cluster.WithDeadAfter(cfg.failoverAfter),
	}
	if cfg.everyN > 0 {
		opts = append(opts, cluster.WithEveryUploads(cfg.everyN))
	}
	coord, err := cluster.New(opts...)
	if err != nil {
		return err
	}
	bound, err := coord.Listen(ctx, cfg.addr)
	if err != nil {
		coord.Close()
		return err
	}
	fmt.Printf("cloakd: coordinator listening on %s (%d shards, population %d, k=%d)\n",
		bound, coord.Shards(), cfg.n, cfg.k)

	var adminSrv *http.Server
	if cfg.adminAddr != "" {
		l, err := net.Listen("tcp", cfg.adminAddr)
		if err != nil {
			coord.Close()
			return fmt.Errorf("admin listen: %w", err)
		}
		adminSrv = &http.Server{Handler: admin.NewCluster(coord)}
		go func() {
			if err := adminSrv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "cloakd: admin server:", err)
			}
		}()
		fmt.Printf("cloakd: admin listening on %s\n", l.Addr())
	}

	<-ctx.Done()
	fmt.Println("cloakd: shutting down")
	if adminSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		adminSrv.Shutdown(sctx) //nolint:errcheck // best effort on the way out
		cancel()
	}
	closeErr := coord.Close()
	if err := cluster.CloseShards(shards); err != nil && closeErr == nil {
		closeErr = err
	}
	fmt.Printf("cloakd: final request metrics: %s\n", coord.Metrics().Snapshot())
	fmt.Printf("cloakd: final cluster metrics: %s\n", cm.Snapshot())
	return closeErr
}

// runDemo simulates the device side: measure proximity, upload, freeze,
// cloak.
func runDemo(addr string, n, k int, seed int64) error {
	fmt.Printf("demo: generating %d devices and measuring proximity\n", n)
	pop, err := workload.NewPopulation(n, dataset.DeltaFor(n), seed)
	if err != nil {
		return err
	}
	g := pop.Graph()
	fmt.Printf("demo: proximity graph has %d mutual edges (avg degree %.1f)\n",
		g.NumEdges(), g.Stats().AvgDegree)

	c, err := service.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	for _, v := range pop.Users() {
		if err := c.Upload(v, workload.Peers(g, v)); err != nil {
			return fmt.Errorf("upload %d: %w", v, err)
		}
	}
	ep, err := c.Freeze()
	if err != nil {
		return err
	}
	fmt.Printf("demo: server built epoch %d with %d edges\n", ep.Epoch, ep.Edges)

	for _, host := range []int32{0, 7, int32(n / 2)} {
		cp, err := c.CloakV1(host)
		if err != nil {
			fmt.Printf("demo: host %d: %v\n", host, err)
			continue
		}
		fmt.Printf("demo: host %d clustered with %d users (request cost %d, epoch %d)\n",
			host, len(cp.Cluster), cp.Cost, cp.Epoch)
	}
	stats, err := c.StatsV1()
	if err != nil {
		return err
	}
	fmt.Printf("demo: server now holds %d clusters for %d users (epoch %d)\n",
		stats.Clusters, stats.Users, stats.Epoch)
	fmt.Printf("demo: server handled %d requests (%d errors, p50 %.0fµs, p95 %.0fµs, p99 %.0fµs)\n",
		stats.Requests, stats.ReqErrors, stats.LatP50us, stats.LatP95us, stats.LatP99us)
	return nil
}
