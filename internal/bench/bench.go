// Package bench is the reproducible experiment-grid harness behind
// scripts/bench: it sweeps population × k × churn-fraction × workers
// over the deterministic epoch pipeline, repeats every cell, and
// separates what must be byte-reproducible (request outcomes, epoch
// transcripts, shard accounting) from what is timing (throughput,
// latencies, rebuild durations). The checked-in BENCH_<rev>.json a run
// emits is therefore both a perf baseline — diffable against later
// revisions with a noise-aware threshold — and a correctness witness:
// re-running the same grid with the same seed must reproduce every
// non-timing field byte-identically.
//
// Each cell rep runs internal/workload's phases, the ones cloaksim
// -churn and -load run too, on a deterministic schedule so outcome
// counts cannot depend on scheduling: upload the whole population,
// rotate, sync; then run Ticks churn rounds (move a seeded fraction of
// users, re-upload, rotate, sync — the synced rotates are what the
// rebuild-latency metric times); then replay a Zipf(theta)-skewed
// request mix of Requests cloaks split across Workers concurrent
// clients against the final, fixed generation.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/epoch"
	"nonexposure/internal/geo"
	"nonexposure/internal/metrics"
	"nonexposure/internal/workload"
	"nonexposure/internal/wpg"
)

// CellParams identifies one grid cell: the four swept axes.
type CellParams struct {
	// N is the population size.
	N int `json:"n"`
	// K is the anonymity level.
	K int `json:"k"`
	// ChurnFrac is the fraction of users re-uploading per churn tick.
	ChurnFrac float64 `json:"churn_frac"`
	// Workers sets both the rebuild worker pool and the number of
	// concurrent cloak clients in the request phase.
	Workers int `json:"workers"`
	// Profiles names the per-user privacy-profile mix uploaded with the
	// rankings ("" = every user on the service defaults, "mixed" = the
	// seeded 70/20/10 default / double-k / double-k+tight-area tier mix).
	// Optional axis: omitted from the JSON and the cell ID when empty so
	// pre-profile baselines keep their IDs.
	Profiles string `json:"profiles,omitempty"`
	// GOMAXPROCS runs the cell's reps under this runtime.GOMAXPROCS (at
	// most MaxGOMAXPROCS); 0 leaves the process setting alone. Optional
	// axis: omitted from the JSON and the cell ID when 0 so baselines
	// from before the axis existed keep their IDs.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
}

// MaxGOMAXPROCS bounds the GOMAXPROCS axis.
const MaxGOMAXPROCS = 256

// ID renders the canonical cell key used in reports and diffs.
func (p CellParams) ID() string {
	id := fmt.Sprintf("n=%d/k=%d/churn=%g/workers=%d", p.N, p.K, p.ChurnFrac, p.Workers)
	if p.Profiles != "" {
		id += fmt.Sprintf("/profiles=%s", p.Profiles)
	}
	if p.GOMAXPROCS > 0 {
		id += fmt.Sprintf("/gomaxprocs=%d", p.GOMAXPROCS)
	}
	return id
}

// Validate rejects unrunnable cells.
func (p CellParams) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("bench: population %d < 1", p.N)
	}
	if p.K < 1 {
		return fmt.Errorf("bench: k %d < 1", p.K)
	}
	if p.ChurnFrac <= 0 || p.ChurnFrac > 1 {
		return fmt.Errorf("bench: churn fraction %g outside (0,1]", p.ChurnFrac)
	}
	if p.Workers < 1 {
		return fmt.Errorf("bench: workers %d < 1", p.Workers)
	}
	if p.Profiles != "" && p.Profiles != ProfileMixMixed {
		return fmt.Errorf("bench: unknown profile mix %q", p.Profiles)
	}
	if p.GOMAXPROCS < 0 || p.GOMAXPROCS > MaxGOMAXPROCS {
		return fmt.Errorf("bench: gomaxprocs %d outside [0,%d]", p.GOMAXPROCS, MaxGOMAXPROCS)
	}
	return nil
}

// ProfileMixMixed is the one named profile tier mix the harness knows:
// 70% default users, 20% demanding k_i = 2K, 10% demanding k_i = 2K
// plus a tight MaxArea bound (so some cloaks come back degraded).
const ProfileMixMixed = "mixed"

// CellConfig is the per-cell run protocol shared by every cell of a
// grid.
type CellConfig struct {
	// Ticks is the number of churn rounds (each one timed rebuild).
	Ticks int `json:"ticks"`
	// Requests is the number of cloak requests in the request phase.
	Requests int `json:"requests"`
	// Theta is the Zipf skew of the request mixer (0 = uniform).
	Theta float64 `json:"theta"`
	// Seed drives every random choice; one seed fixes the whole run.
	Seed int64 `json:"seed"`
	// Reps is how many times each cell is repeated for mean/std.
	Reps int `json:"reps"`
}

// Validate rejects unrunnable configs.
func (c CellConfig) Validate() error {
	if c.Ticks < 1 {
		return fmt.Errorf("bench: ticks %d < 1", c.Ticks)
	}
	if c.Requests < 1 {
		return fmt.Errorf("bench: requests %d < 1", c.Requests)
	}
	if c.Theta < 0 || math.IsNaN(c.Theta) || math.IsInf(c.Theta, 0) {
		return fmt.Errorf("bench: zipf theta %v must be finite and >= 0", c.Theta)
	}
	if c.Reps < 1 {
		return fmt.Errorf("bench: reps %d < 1", c.Reps)
	}
	return nil
}

// Grid is a full sweep: the cross product of the four axes, run under
// one shared CellConfig.
type Grid struct {
	Populations []int     `json:"populations"`
	Ks          []int     `json:"ks"`
	ChurnFracs  []float64 `json:"churn_fracs"`
	Workers     []int     `json:"workers"`
	// Profiles is the optional fifth axis (named privacy-profile mixes;
	// "" = all defaults). Empty means [""], so grids from before the
	// axis existed expand to the same cells.
	Profiles []string `json:"profiles,omitempty"`
	// GOMAXPROCS is the optional sixth axis (runtime.GOMAXPROCS per
	// cell; 0 = the process setting). Empty means [0], so grids from
	// before the axis existed expand to the same cells.
	GOMAXPROCS []int `json:"gomaxprocs,omitempty"`
	CellConfig
}

// DefaultGrid is the checked-in baseline sweep: 32 cells × 3 reps,
// sized to finish in well under a minute on a small CI box while still
// spanning a 4× population range, two anonymity levels, light and
// heavy churn, serial vs parallel serving, and one vs two cores.
func DefaultGrid() Grid {
	return Grid{
		Populations: []int{1000, 4000},
		Ks:          []int{5, 10},
		ChurnFracs:  []float64{0.02, 0.1},
		Workers:     []int{1, 4},
		GOMAXPROCS:  []int{1, 2},
		CellConfig: CellConfig{
			Ticks:    4,
			Requests: 2000,
			Theta:    0.8,
			Seed:     42,
			Reps:     3,
		},
	}
}

// TinyGrid is the 1-rep CI smoke: two cells small enough to run inside
// the tier-1 gate on every push, exercising the whole harness (grid
// expansion, cell protocol, report schema, self-diff) without paying
// for a measurement-quality sweep.
func TinyGrid() Grid {
	return Grid{
		Populations: []int{300},
		Ks:          []int{5},
		ChurnFracs:  []float64{0.1},
		Workers:     []int{1, 2},
		CellConfig: CellConfig{
			Ticks:    2,
			Requests: 200,
			Theta:    0.8,
			Seed:     42,
			Reps:     1,
		},
	}
}

// ProfilesGrid is the personalized-profile A/B sweep: one mid-size
// population, all-default vs the mixed tier mix, serial vs parallel
// serving. The default cells double as a drift check against the same
// parameters in DefaultGrid-shaped runs; the mixed cells measure what
// heterogeneous floors cost in rebuild time and what the tight-area
// tier pays in degraded answers.
func ProfilesGrid() Grid {
	return Grid{
		Populations: []int{2000},
		Ks:          []int{5},
		ChurnFracs:  []float64{0.1},
		Workers:     []int{1, 4},
		Profiles:    []string{"", ProfileMixMixed},
		CellConfig: CellConfig{
			Ticks:    4,
			Requests: 2000,
			Theta:    0.8,
			Seed:     42,
			Reps:     3,
		},
	}
}

// Validate rejects empty or unrunnable grids.
func (g Grid) Validate() error {
	if len(g.Populations) == 0 || len(g.Ks) == 0 || len(g.ChurnFracs) == 0 || len(g.Workers) == 0 {
		return errors.New("bench: every grid axis needs at least one value")
	}
	if err := g.CellConfig.Validate(); err != nil {
		return err
	}
	for _, c := range g.Cells() {
		if err := c.Validate(); err != nil {
			return err
		}
		if g.Requests > c.N*1000 {
			return fmt.Errorf("bench: cell %s: %d requests is out of proportion to the population", c.ID(), g.Requests)
		}
	}
	return nil
}

// Cells expands the grid into its cross product, in a fixed axis order
// (population, k, churn, workers, profiles, GOMAXPROCS) so cell order —
// and thus report layout — is deterministic.
func (g Grid) Cells() []CellParams {
	profiles := g.Profiles
	if len(profiles) == 0 {
		profiles = []string{""}
	}
	procs := g.GOMAXPROCS
	if len(procs) == 0 {
		procs = []int{0}
	}
	var cells []CellParams
	for _, n := range g.Populations {
		for _, k := range g.Ks {
			for _, cf := range g.ChurnFracs {
				for _, w := range g.Workers {
					for _, pm := range profiles {
						for _, gp := range procs {
							cells = append(cells, CellParams{N: n, K: k, ChurnFrac: cf, Workers: w,
								Profiles: pm, GOMAXPROCS: gp})
						}
					}
				}
			}
		}
	}
	return cells
}

// Determinism is the byte-reproducible half of a cell result: every
// field is a pure function of (params, config) — no wall-clock, no
// scheduling. Equal seeds must reproduce it exactly, and all reps of a
// cell must agree on it (RunCell fails loudly if they do not).
type Determinism struct {
	// Served and Unclusterable partition the request phase's outcomes:
	// cloaks answered vs hosts in components smaller than k. They
	// always sum to the grid's Requests.
	Served        int `json:"served"`
	Unclusterable int `json:"unclusterable"`
	// Epochs is the final serving generation number (initial build plus
	// every churn tick that produced new uploads).
	Epochs uint64 `json:"epochs"`
	// Edges, Clusters, and Skipped describe the final generation.
	Edges    int `json:"edges"`
	Clusters int `json:"clusters"`
	Skipped  int `json:"skipped"`
	// ShardsTotal and ShardsRebuilt are the cumulative incremental
	// rebuild accounting across all builds of the rep.
	ShardsTotal   int `json:"shards_total"`
	ShardsRebuilt int `json:"shards_rebuilt"`
	// TranscriptSHA256 digests the full epoch transcript — the
	// strongest reproducibility witness the pipeline offers.
	TranscriptSHA256 string `json:"transcript_sha256"`
	// KMax and Degraded are the final generation's profile accounting:
	// the largest effective anonymity level any cluster satisfies and
	// how many users were served with their MaxArea bound exceeded.
	// Both zero (and omitted) in profile-less cells, so pre-profile
	// baselines compare clean.
	KMax     int `json:"k_max,omitempty"`
	Degraded int `json:"degraded,omitempty"`
}

// Metric is one timing measurement aggregated over a cell's reps.
type Metric struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

// The timing metrics every cell must report (schema-checked by
// Report.Validate and compared by Diff).
const (
	MetricInitialBuildMs = "initial_build_ms" // cold build: upload all + first rotate
	MetricRebuildMs      = "rebuild_ms"       // mean synced churn rotate
	MetricThroughputRPS  = "throughput_rps"   // request-phase cloaks per second
	MetricCloakP50Ns     = "cloak_p50_ns"
	MetricCloakP95Ns     = "cloak_p95_ns"
	MetricCloakP99Ns     = "cloak_p99_ns"
)

// RequiredMetrics lists every metric key a valid cell result carries,
// in report order.
func RequiredMetrics() []string {
	return []string{
		MetricInitialBuildMs,
		MetricRebuildMs,
		MetricThroughputRPS,
		MetricCloakP50Ns,
		MetricCloakP95Ns,
		MetricCloakP99Ns,
	}
}

// CellResult is one cell's aggregated outcome.
type CellResult struct {
	ID          string            `json:"id"`
	Params      CellParams        `json:"params"`
	Metrics     map[string]Metric `json:"metrics"`
	Determinism Determinism       `json:"determinism"`
}

// repOut is one rep's raw outcome before aggregation.
type repOut struct {
	det    Determinism
	timing map[string]float64
}

// RunCell runs one cell cfg.Reps times and aggregates. Every rep uses
// the same seed — the deterministic half must come out identical each
// time (it is compared rep-to-rep and the run fails on any mismatch),
// while the timing half varies and is what mean/std summarize.
func RunCell(p CellParams, cfg CellConfig) (CellResult, error) {
	if err := p.Validate(); err != nil {
		return CellResult{}, err
	}
	if err := cfg.Validate(); err != nil {
		return CellResult{}, err
	}
	if p.GOMAXPROCS > 0 {
		// Set now; the deferred call restores the previous setting.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.GOMAXPROCS))
	}
	res := CellResult{ID: p.ID(), Params: p, Metrics: make(map[string]Metric)}
	samples := make(map[string][]float64)
	for rep := 0; rep < cfg.Reps; rep++ {
		out, err := runRep(p, cfg)
		if err != nil {
			return CellResult{}, fmt.Errorf("cell %s rep %d: %w", p.ID(), rep, err)
		}
		if rep == 0 {
			res.Determinism = out.det
		} else if res.Determinism != out.det {
			return CellResult{}, fmt.Errorf(
				"cell %s: determinism violation — rep %d disagrees with rep 0:\n  rep0: %+v\n  rep%d: %+v",
				p.ID(), rep, res.Determinism, rep, out.det)
		}
		for k, v := range out.timing {
			samples[k] = append(samples[k], v)
		}
	}
	for k, vs := range samples {
		res.Metrics[k] = summarize(vs)
	}
	return res, nil
}

// summarize computes mean and sample standard deviation (0 for a
// single rep).
func summarize(vs []float64) Metric {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	if len(vs) < 2 {
		return Metric{Mean: mean}
	}
	var sq float64
	for _, v := range vs {
		sq += (v - mean) * (v - mean)
	}
	return Metric{Mean: mean, Std: math.Sqrt(sq / float64(len(vs)-1))}
}

// ProfileMix returns the per-user profiles of a named tier mix (nil
// for ""): seeded, so the same (mix, n, k, seed) always produces the
// same assignment. The tight-area tier's bound is sized in units of
// delta, the radio range, so it scales with population density.
func ProfileMix(mix string, n, k int, delta float64, seed int64) map[int32]core.Profile {
	if mix == "" {
		return nil
	}
	rng := rand.New(rand.NewSource(seed + 7))
	tight := (1.5 * delta) * (1.5 * delta)
	profs := make(map[int32]core.Profile)
	for u := 0; u < n; u++ {
		switch r := rng.Float64(); {
		case r < 0.7:
			// default tier
		case r < 0.9:
			profs[int32(u)] = core.Profile{K: int32(2 * k)}
		default:
			profs[int32(u)] = core.Profile{K: int32(2 * k), MaxArea: tight}
		}
	}
	return profs
}

// runRep executes the cell protocol once.
func runRep(p CellParams, cfg CellConfig) (repOut, error) {
	delta := dataset.DeltaFor(p.N)
	pop, err := workload.NewPopulation(p.N, delta, cfg.Seed)
	if err != nil {
		return repOut{}, err
	}
	profs := ProfileMix(p.Profiles, p.N, p.K, delta, cfg.Seed)
	em := metrics.NewEpochMetrics()
	opts := []epoch.Option{epoch.WithK(p.K), epoch.WithWorkers(p.Workers), epoch.WithMetrics(em)}
	if profs != nil {
		// Degraded accounting needs cluster areas; the harness owns the
		// positions (the pipeline never sees them), so it supplies the
		// bounding-box estimator. Positions are stable during a build —
		// the model only steps between synced rotates.
		opts = append(opts, epoch.WithAreaEstimator(func(members []int32) (float64, bool) {
			pos := pop.Model.Positions()
			r := geo.EmptyRect()
			for _, v := range members {
				r = r.ExpandToInclude(pos[v])
			}
			return r.Area(), true
		}))
	}
	mgr, err := epoch.New(p.N, opts...)
	if err != nil {
		return repOut{}, err
	}
	defer mgr.Close()

	ctx := context.Background()
	uploadFrom := func(g *wpg.Graph, users []int32) error {
		for _, v := range users {
			// Profiled cells restate each user's profile on every upload
			// (zero for unprofiled users); profile-free cells send none at
			// all, which keeps their request stream identical to the
			// pre-profile one.
			var prof *core.Profile
			if profs != nil {
				p := profs[v]
				prof = &p
			}
			if err := mgr.Upload(ctx, epoch.UploadRequest{User: v, Peers: workload.Peers(g, v), Profile: prof}); err != nil {
				return err
			}
		}
		return nil
	}

	// Phase 1: cold build.
	t0 := time.Now()
	if err := uploadFrom(pop.Graph(), pop.Users()); err != nil {
		return repOut{}, err
	}
	if _, err := mgr.Rotate(ctx); err != nil {
		return repOut{}, err
	}
	if err := mgr.Sync(ctx); err != nil {
		return repOut{}, err
	}
	initialBuild := time.Since(t0)

	// Phase 2: churn ticks, each a timed synced rebuild.
	var rebuildTotal time.Duration
	for tick := 0; tick < cfg.Ticks; tick++ {
		g, users := pop.Tick(p.ChurnFrac)
		t0 := time.Now()
		if err := uploadFrom(g, users); err != nil {
			return repOut{}, err
		}
		if _, err := mgr.Rotate(ctx); err != nil && !errors.Is(err, epoch.ErrNoNewUploads) {
			return repOut{}, err
		}
		if err := mgr.Sync(ctx); err != nil {
			return repOut{}, err
		}
		rebuildTotal += time.Since(t0)
	}

	// Phase 3: Zipf request mix against the final, fixed generation.
	hosts, err := workload.ZipfHosts(p.N, cfg.Requests, cfg.Theta, cfg.Seed+1)
	if err != nil {
		return repOut{}, err
	}
	reqm := metrics.NewRequestMetrics()
	start := time.Now()
	tally := workload.Replay(hosts, p.Workers, reqm, func(host int32) error {
		_, err := mgr.Cloak(ctx, host)
		return err
	})
	elapsed := time.Since(start)
	if tally.Err != nil {
		return repOut{}, fmt.Errorf("hard cloak failure: %w", tally.Err)
	}

	transcript := mgr.Transcript()
	sum := sha256.Sum256([]byte(strings.Join(transcript, "\n")))
	st := mgr.Status()
	es := em.Snapshot()
	snap := reqm.Snapshot()

	out := repOut{
		det: Determinism{
			Served:           tally.Served,
			Unclusterable:    tally.Unclusterable,
			Epochs:           st.Epoch,
			Edges:            st.Edges,
			Clusters:         st.Clusters,
			Skipped:          st.Skipped,
			ShardsTotal:      int(es.ShardsTotal),
			ShardsRebuilt:    int(es.ShardsRebuilt),
			TranscriptSHA256: hex.EncodeToString(sum[:]),
			KMax:             st.KMax,
			Degraded:         st.Degraded,
		},
		timing: map[string]float64{
			MetricInitialBuildMs: float64(initialBuild.Nanoseconds()) / 1e6,
			MetricRebuildMs:      float64(rebuildTotal.Nanoseconds()) / 1e6 / float64(cfg.Ticks),
			MetricThroughputRPS:  float64(len(hosts)) / elapsed.Seconds(),
			MetricCloakP50Ns:     float64(snap.P50.Nanoseconds()),
			MetricCloakP95Ns:     float64(snap.P95.Nanoseconds()),
			MetricCloakP99Ns:     float64(snap.P99.Nanoseconds()),
		},
	}
	return out, nil
}

// RunGrid sweeps every cell of g. logf (nil ok) receives one progress
// line per completed cell. The returned report carries everything
// except Rev, which the caller stamps (the library stays free of git
// invocations).
func RunGrid(g Grid, logf func(format string, args ...any)) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cells := g.Cells()
	rep := newReport(g)
	start := time.Now()
	for i, c := range cells {
		res, err := RunCell(c, g.CellConfig)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, res)
		logf("[%d/%d] %s: %.0f req/s, rebuild %.1fms, served %d/%d",
			i+1, len(cells), res.ID,
			res.Metrics[MetricThroughputRPS].Mean,
			res.Metrics[MetricRebuildMs].Mean,
			res.Determinism.Served, g.Requests)
	}
	logf("grid done: %d cells x %d reps in %v", len(cells), g.Reps, time.Since(start).Round(time.Millisecond))
	sort.Slice(rep.Cells, func(i, j int) bool { return rep.Cells[i].ID < rep.Cells[j].ID })
	return rep, nil
}
