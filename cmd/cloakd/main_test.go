package main

import (
	"strings"
	"testing"
	"time"

	"nonexposure/internal/cluster"
)

func TestConfigValidate(t *testing.T) {
	valid := config{addr: ":0", n: 100, k: 10, failoverAfter: cluster.DefaultDeadAfter}
	tests := []struct {
		name    string
		mutate  func(*config)
		wantErr string // "" = valid
	}{
		{"defaults", func(c *config) {}, ""},
		{"admin and trace on", func(c *config) { c.adminAddr = "127.0.0.1:0"; c.traceCap = 64 }, ""},
		{"zero population", func(c *config) { c.n = 0 }, "-n must be >= 1"},
		{"negative population", func(c *config) { c.n = -5 }, "-n must be >= 1"},
		{"zero k", func(c *config) { c.k = 0 }, "-k must be >= 1"},
		{"k beyond population", func(c *config) { c.k = 101 }, "exceeds the population"},
		{"negative rebuild-uploads", func(c *config) { c.everyN = -1 }, "-rebuild-uploads must be >= 0"},
		{"negative rebuild-frac", func(c *config) { c.frac = -0.1 }, "-rebuild-frac must be in [0,1]"},
		{"rebuild-frac above one", func(c *config) { c.frac = 1.5 }, "-rebuild-frac must be in [0,1]"},
		{"rebuild-frac at one", func(c *config) { c.frac = 1 }, ""},
		{"negative trace", func(c *config) { c.traceCap = -1 }, "-trace must be >= 0"},
		{"negative max-staleness", func(c *config) { c.maxStale = -time.Second }, "-max-staleness must be >= 0"},
		{"max-staleness on", func(c *config) { c.maxStale = 30 * time.Second }, ""},
		{"coordinator with failover", func(c *config) { c.coordinator = true; c.shards = 2; c.failoverAfter = time.Second }, ""},
		{"negative failover-after", func(c *config) { c.coordinator = true; c.shards = 2; c.failoverAfter = -time.Second },
			"-failover-after must be > 0"},
		{"zero failover-after", func(c *config) { c.coordinator = true; c.shards = 2; c.failoverAfter = 0 },
			"-failover-after must be > 0"},
		{"failover-after without coordinator", func(c *config) { c.failoverAfter = time.Second },
			"-failover-after requires -coordinator"},
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

// TestRunRejectsBadFlagsBeforeListening pins that validation fires
// before any socket is opened: an invalid config must not leave a
// listener behind (run returns the validation error immediately).
func TestRunRejectsBadFlagsBeforeListening(t *testing.T) {
	err := run(config{addr: "127.0.0.1:0", n: 10, k: 0})
	if err == nil || !strings.Contains(err.Error(), "-k must be >= 1") {
		t.Fatalf("run() = %v, want k validation error", err)
	}
}
