package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"nonexposure/internal/cluster"
	"nonexposure/internal/dataset"
	"nonexposure/internal/workload"
)

func TestSimConfigValidate(t *testing.T) {
	valid := simConfig{n: 5000, k: 10, workers: 16, churnFrac: 0.2, nearby: 3, killShard: -1, failoverAfter: cluster.DefaultDeadAfter}
	tests := []struct {
		name    string
		mutate  func(*simConfig)
		wantErr string // "" = valid
	}{
		{"defaults", func(c *simConfig) {}, ""},
		{"churn mode", func(c *simConfig) { c.churn = 20 }, ""},
		{"faults mode", func(c *simConfig) { c.faults = 100 }, ""},
		{"zero population", func(c *simConfig) { c.n = 0 }, "-n must be >= 1"},
		{"zero k", func(c *simConfig) { c.k = 0 }, "-k must be >= 1"},
		{"negative faults", func(c *simConfig) { c.faults = -1 }, "-faults must be >= 0"},
		{"negative churn", func(c *simConfig) { c.churn = -3 }, "-churn must be >= 0"},
		{"negative load", func(c *simConfig) { c.load = -1 }, "-load must be >= 0"},
		{"zero workers", func(c *simConfig) { c.workers = 0 }, "-workers must be >= 1"},
		{"churnfrac zero with churn", func(c *simConfig) { c.churn = 5; c.churnFrac = 0 }, "-churnfrac must be in (0,1]"},
		{"churnfrac above one with churn", func(c *simConfig) { c.churn = 5; c.churnFrac = 1.2 }, "-churnfrac must be in (0,1]"},
		{"churnfrac ignored without churn", func(c *simConfig) { c.churnFrac = 7 }, ""},
		{"cluster mode", func(c *simConfig) { c.cluster = true; c.shards = 2 }, ""},
		{"churnfrac zero with cluster", func(c *simConfig) { c.cluster = true; c.shards = 2; c.churnFrac = 0 },
			"-churnfrac must be in (0,1]"},
		{"churnfrac above one with cluster", func(c *simConfig) { c.cluster = true; c.shards = 2; c.churnFrac = 1.5 },
			"-churnfrac must be in (0,1]"},
		{"negative loss", func(c *simConfig) { c.loss = -0.5 }, "-loss must be in [0,1]"},
		{"loss above one", func(c *simConfig) { c.loss = 1.5 }, "-loss must be in [0,1]"},
		{"negative nearby", func(c *simConfig) { c.nearby = -1 }, "-nearby must be >= 0"},
		{"negative delta", func(c *simConfig) { c.delta = -1e-3 }, "-delta must be >= 0"},
		{"load nan theta", func(c *simConfig) { c.load = 100; c.theta = math.NaN() }, "-theta must be finite"},
		{"load negative theta", func(c *simConfig) { c.load = 100; c.theta = -0.5 }, "-theta must be finite"},
		{"load zipf theta", func(c *simConfig) { c.load = 100; c.theta = 1.0 }, ""},
		{"profiles mode", func(c *simConfig) { c.profiles = true }, ""},
		{"profiles with load", func(c *simConfig) { c.profiles = true; c.load = 100 },
			"-profiles cannot be combined"},
		{"profiles with churn", func(c *simConfig) { c.profiles = true; c.churn = 5 },
			"-profiles cannot be combined"},
		{"profiles with faults", func(c *simConfig) { c.profiles = true; c.faults = 10 },
			"-profiles cannot be combined"},
		{"cluster with failover", func(c *simConfig) { c.cluster = true; c.shards = 2; c.failoverAfter = 1e9 }, ""},
		{"negative failover-after", func(c *simConfig) { c.cluster = true; c.shards = 2; c.failoverAfter = -1 },
			"-failover-after must be > 0"},
		{"zero failover-after", func(c *simConfig) { c.cluster = true; c.shards = 2; c.failoverAfter = 0 },
			"-failover-after must be > 0"},
		{"failover-after without cluster", func(c *simConfig) { c.failoverAfter = 1e9 },
			"-failover-after requires -cluster"},
		{"kill-shard drill", func(c *simConfig) { c.cluster = true; c.shards = 2; c.killShard = 1; c.failoverAfter = 1e9 }, ""},
		{"kill-shard without cluster", func(c *simConfig) { c.killShard = 0 },
			"-kill-shard requires -cluster"},
		{"kill-shard lone shard", func(c *simConfig) { c.cluster = true; c.shards = 1; c.killShard = 0; c.failoverAfter = 1e9 },
			"-kill-shard needs -shards >= 2"},
		{"kill-shard out of range", func(c *simConfig) { c.cluster = true; c.shards = 2; c.killShard = 2; c.failoverAfter = 1e9 },
			"out of range"},
		{"kill-shard without failover", func(c *simConfig) { c.cluster = true; c.shards = 2; c.killShard = 1; c.failoverAfter = 0 },
			"-failover-after must be > 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := valid
			tt.mutate(&c)
			err := c.validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestChurnLoopSameOnBothTargets runs the churn-under-load loop of
// -churn and -cluster with one seed against one process's epoch
// pipeline and against a 2-shard in-process cluster. Neither may fail a
// cloak hard, and the closing sweep must serve and refuse the same
// numbers of users on both.
func TestChurnLoopSameOnBothTargets(t *testing.T) {
	cfg := simConfig{n: 800, k: 5, seed: 42, workers: 2, churn: 2, churnFrac: 0.2, shards: 2,
		killShard: -1, failoverAfter: cluster.DefaultDeadAfter}
	cfg.delta = dataset.DeltaFor(cfg.n)
	ctx := context.Background()

	pop, err := workload.NewPopulation(cfg.n, cfg.delta, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	one, err := churnLoad(ctx, cfg, pop, "churn", s, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg.cluster = true
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	pop, err = workload.NewPopulation(cfg.n, cfg.delta, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := startCluster(ctx, cfg, pop.Model.Positions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	two, err := churnLoad(ctx, cfg, pop, "cluster", coordinated{c.coord}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, r := range map[string]churnResult{"single process": one, "cluster": two} {
		if err := r.err(); err != nil {
			t.Errorf("%s: %v (hammer %+v, sweep %+v)", name, err, r.hammer, r.sweep)
		}
		if r.hammer.Total() == 0 {
			t.Errorf("%s: the hammer issued no cloak", name)
		}
	}
	if one.sweep.Served != two.sweep.Served || one.sweep.Unclusterable != two.sweep.Unclusterable {
		t.Errorf("sweep: single process %d served, %d unclusterable; cluster %d served, %d unclusterable",
			one.sweep.Served, one.sweep.Unclusterable, two.sweep.Served, two.sweep.Unclusterable)
	}
	if one.sweep.Served == 0 || one.sweep.Unclusterable == 0 {
		t.Errorf("sweep %+v exercises only one outcome", one.sweep)
	}
}
