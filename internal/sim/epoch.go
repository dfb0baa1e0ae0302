package sim

import (
	"context"
	"fmt"
	"math/rand"

	"nonexposure/internal/core"
	"nonexposure/internal/dataset"
	"nonexposure/internal/epoch"
	"nonexposure/internal/mobility"
	"nonexposure/internal/workload"
	"nonexposure/internal/wpg"
)

// EpochScenario is one fully specified run of the live re-clustering
// pipeline under a mobile population: a seeded Gaussian population
// wanders locally, a deterministic fraction re-uploads its proximity
// ranking every tick, and the pipeline rotates one epoch per tick.
// Everything is a pure function of the seed, so the epoch transcript —
// and every per-epoch safety property — is reproducible.
type EpochScenario struct {
	Name     string
	Seed     int64
	NumUsers int
	K        int
	// Ticks is how many mobility steps (and epoch rotations) to run
	// after the initial full upload.
	Ticks int
	// Frac is the fraction of users that re-upload per tick.
	Frac float64
	// Profiles holds the per-user privacy profiles uploaded alongside
	// every ranking (nil/missing = the default profile). Heterogeneous
	// scenarios raise some users' personal k above the service K;
	// Violations then checks every cluster against the max over its
	// members.
	Profiles map[int32]core.Profile
}

// GenerateEpochScenario derives a scenario from a seed, scaled small
// enough that a few hundred of them stay test-sized.
func GenerateEpochScenario(seed int64) EpochScenario {
	rng := rand.New(rand.NewSource(seed))
	return EpochScenario{
		Name:     fmt.Sprintf("epoch-%d", seed),
		Seed:     seed,
		NumUsers: 120 + rng.Intn(180),
		K:        3 + rng.Intn(4),
		Ticks:    2 + rng.Intn(4),
		Frac:     0.1 + 0.4*rng.Float64(),
	}
}

// GenerateProfiledEpochScenario derives a heterogeneous-profile
// scenario from a seed: a seeded fraction of users demands a personal
// anonymity floor above the service K (up to 3K), so clusters must
// satisfy max(k_i) over their members rather than the uniform K.
func GenerateProfiledEpochScenario(seed int64) EpochScenario {
	sc := GenerateEpochScenario(seed)
	sc.Name = fmt.Sprintf("profiled-%d", seed)
	rng := rand.New(rand.NewSource(seed + 3))
	frac := 0.1 + 0.3*rng.Float64()
	sc.Profiles = make(map[int32]core.Profile)
	for u := 0; u < sc.NumUsers; u++ {
		if rng.Float64() < frac {
			sc.Profiles[int32(u)] = core.Profile{K: int32(sc.K + 1 + rng.Intn(2*sc.K))}
		}
	}
	return sc
}

// EpochReport is the outcome of one scenario: every built generation
// (graph, registry, bookkeeping), each kept as its rotation returned
// it, and the deterministic transcript.
type EpochReport struct {
	Scenario    EpochScenario
	Generations []*epoch.Generation
	Transcript  []string
}

// RunEpochScenario executes the scenario and returns the report. Every
// rotation waits for its own build, so nothing is left building when it
// returns.
func RunEpochScenario(sc EpochScenario) (*EpochReport, error) {
	pts := dataset.GaussianClusters(sc.NumUsers, 6, 0.02, sc.Seed)
	model, err := mobility.NewLocalWander(pts, scenarioDelta/2, scenarioDelta/8, scenarioDelta/4, sc.Seed+1)
	if err != nil {
		return nil, err
	}
	pop := &workload.Population{Model: model, Delta: scenarioDelta, MaxPeers: scenarioMaxPeers,
		Movers: rand.New(rand.NewSource(sc.Seed + 2))}
	mgr, err := epoch.New(sc.NumUsers, epoch.WithK(sc.K))
	if err != nil {
		return nil, err
	}
	defer mgr.Close()

	ctx := context.Background()
	upload := func(g *wpg.Graph, users []int32) error {
		for _, v := range users {
			prof := sc.Profiles[v] // zero for unprofiled users
			if err := mgr.Upload(ctx, epoch.UploadRequest{User: v, Peers: workload.Peers(g, v), Profile: &prof}); err != nil {
				return err
			}
		}
		return nil
	}

	if err := upload(pop.Graph(), pop.Users()); err != nil {
		return nil, err
	}
	gen, err := mgr.RotateAndWait(ctx)
	if err != nil {
		return nil, err
	}
	gens := []*epoch.Generation{gen}

	for tick := 0; tick < sc.Ticks; tick++ {
		if err := upload(pop.Tick(sc.Frac)); err != nil {
			return nil, err
		}
		gen, err := mgr.RotateAndWait(ctx)
		if err == epoch.ErrNoNewUploads {
			continue
		}
		if err != nil {
			return nil, err
		}
		gens = append(gens, gen)
	}
	return &EpochReport{
		Scenario:    sc,
		Generations: gens,
		Transcript:  mgr.Transcript(),
	}, nil
}

// Violations checks every published generation independently — the
// whole point of the epoch pipeline is that each generation is a
// self-contained clustering whose safety does not depend on any other:
//
//   - k-anonymity: every registered cluster has at least K members.
//   - reciprocity: every member of a cluster resolves to that cluster.
//   - coverage: exactly the vertices of undersized components are
//     unassigned (matching the generation's Skipped count).
//   - isolation (Theorem 4.4): removing any cluster leaves each of its
//     border vertices able to form a valid t-connectivity cluster in
//     the remaining graph — witnessed with the border vertex's own
//     cluster threshold, since a centralized partition assigns every
//     border vertex a cluster of its own.
//
// Failed builds (BuildErr != nil) are reported as violations too: a
// deterministic upload sequence must never produce an invalid graph.
func (r *EpochReport) Violations() []string {
	var out []string
	for _, gen := range r.Generations {
		if gen.BuildErr != nil {
			out = append(out, fmt.Sprintf("epoch %d: build failed: %v", gen.Epoch, gen.BuildErr))
			continue
		}
		reg := gen.Anon.Registry()
		if err := reg.CheckReciprocity(); err != nil {
			out = append(out, fmt.Sprintf("epoch %d: reciprocity: %v", gen.Epoch, err))
		}
		for _, c := range reg.Clusters() {
			need := r.Scenario.floorOf(c.Members)
			if c.Size() < need {
				out = append(out, fmt.Sprintf("epoch %d: cluster %d has %d members < max(k_i)=%d",
					gen.Epoch, c.ID, c.Size(), need))
			}
		}
		if msg := checkEpochCoverage(gen.Graph, reg, r.Scenario, gen.Skipped); msg != "" {
			out = append(out, fmt.Sprintf("epoch %d: %s", gen.Epoch, msg))
		}
		if msg := checkEpochIsolation(gen.Graph, reg, r.Scenario.K); msg != "" {
			out = append(out, fmt.Sprintf("epoch %d: %s", gen.Epoch, msg))
		}
	}
	return out
}

// floorOf is the anonymity floor a member set must satisfy: the service
// K raised by any member's personal profile demand.
func (sc EpochScenario) floorOf(members []int32) int {
	need := sc.K
	for _, v := range members {
		if p, ok := sc.Profiles[v]; ok && int(p.K) > need {
			need = int(p.K)
		}
	}
	return need
}

// checkEpochCoverage verifies the unassigned set is exactly the union
// of undersized components — those smaller than the max anonymity floor
// demanded by any of their members (the uniform k when no profiles are
// in play).
func checkEpochCoverage(g *wpg.Graph, reg *core.Registry, sc EpochScenario, skipped int) string {
	unassigned := 0
	for _, comp := range g.Components() {
		small := len(comp) < sc.floorOf(comp)
		for _, v := range comp {
			switch {
			case small && reg.Assigned(v):
				return fmt.Sprintf("vertex %d assigned inside an undersized component of %d", v, len(comp))
			case !small && !reg.Assigned(v):
				return fmt.Sprintf("vertex %d unassigned inside a component of %d >= k", v, len(comp))
			case small:
				unassigned++
			}
		}
	}
	if unassigned != skipped {
		return fmt.Sprintf("skipped count %d != %d vertices in undersized components", skipped, unassigned)
	}
	return ""
}

// checkEpochIsolation verifies Theorem 4.4 for a centralized partition:
// for every cluster C and every vertex b adjacent to C but outside it,
// removing C still leaves b able to form a t-connectivity cluster of
// size >= k at b's own threshold T(cluster(b)).
func checkEpochIsolation(g *wpg.Graph, reg *core.Registry, k int) string {
	excluded := make(map[int32]bool)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if !reg.Assigned(v) {
			excluded[v] = true
		}
	}
	for _, c := range reg.Clusters() {
		inC := make(map[int32]bool, len(c.Members))
		for _, v := range c.Members {
			inC[v] = true
		}
		seen := make(map[int32]bool)
		for _, v := range c.Members {
			for _, e := range g.Neighbors(v) {
				b := e.To
				if inC[b] || excluded[b] || seen[b] {
					continue
				}
				seen[b] = true
				bc, ok := reg.ClusterOf(b)
				if !ok {
					return fmt.Sprintf("border vertex %d of cluster %d has no cluster", b, c.ID)
				}
				if !canFormTCluster(g, b, bc.T, k, inC, excluded) {
					return fmt.Sprintf("removing cluster %d strands border vertex %d (t=%d)", c.ID, b, bc.T)
				}
			}
		}
	}
	return ""
}
