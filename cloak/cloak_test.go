package cloak

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// testUsers places n users in a handful of dense towns so the default
// Delta yields a usable proximity graph.
func testUsers(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	centers := []Point{{0.2, 0.2}, {0.7, 0.3}, {0.4, 0.8}}
	users := make([]Point, n)
	for i := range users {
		c := centers[rng.Intn(len(centers))]
		users[i] = Point{
			X: c.X + (rng.Float64()-0.5)*0.02,
			Y: c.Y + (rng.Float64()-0.5)*0.02,
		}
	}
	return users
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 5
	cfg.Delta = 0.004
	return cfg
}

func TestRegionBasics(t *testing.T) {
	r := Region{MinX: 0.1, MinY: 0.2, MaxX: 0.4, MaxY: 0.6}
	if got, want := r.Area(), 0.12; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("Area = %v, want %v", got, want)
	}
	if !r.Contains(Point{0.2, 0.3}) || r.Contains(Point{0.5, 0.3}) {
		t.Error("Contains wrong")
	}
	inverted := Region{MinX: 1, MaxX: 0}
	if inverted.Area() != 0 {
		t.Error("inverted region should have zero area")
	}
}

func TestNewSystemValidation(t *testing.T) {
	users := testUsers(100, 1)
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"k<1", func(c *Config) { c.K = 0 }},
		{"delta<=0", func(c *Config) { c.Delta = 0 }},
		{"cb<=0", func(c *Config) { c.Cb = 0 }},
		{"cr<=0", func(c *Config) { c.Cr = -1 }},
	}
	for _, tc := range bad {
		cfg := testConfig()
		tc.mut(&cfg)
		if _, err := NewSystem(users, cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	cfg := testConfig()
	cfg.K = 101
	if _, err := NewSystem(users, cfg); err == nil {
		t.Error("K > population: expected error")
	}
}

func TestCloakBasicFlow(t *testing.T) {
	users := testUsers(300, 2)
	sys, err := NewSystem(users, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumUsers() != 300 || sys.K() != 5 {
		t.Errorf("NumUsers=%d K=%d", sys.NumUsers(), sys.K())
	}
	if sys.AvgDegree() <= 0 {
		t.Error("graph has no edges; test geometry broken")
	}

	res, err := sys.Cloak(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterSize < 5 {
		t.Errorf("ClusterSize = %d, want >= 5", res.ClusterSize)
	}
	if !res.Region.Contains(users[0]) {
		t.Errorf("region %+v does not contain the host %+v", res.Region, users[0])
	}
	if res.CachedCluster || res.CachedRegion {
		t.Error("first request should not be cached")
	}
	if res.ClusterComm <= 0 || res.BoundMessages <= 0 {
		t.Errorf("costs: cluster=%d bound=%v", res.ClusterComm, res.BoundMessages)
	}

	// Every cluster member must be inside the region and, when cloaking
	// themselves, get the exact same region at zero cost (reciprocity).
	for _, m := range sys.ClusterOf(0) {
		if !res.Region.Contains(users[m]) {
			t.Errorf("member %d outside the shared region", m)
		}
		r2, err := sys.Cloak(int(m))
		if err != nil {
			t.Fatal(err)
		}
		if r2.Region != res.Region {
			t.Errorf("member %d got region %+v, want %+v", m, r2.Region, res.Region)
		}
		if !r2.CachedCluster || !r2.CachedRegion {
			t.Errorf("member %d should be fully cached: %+v", m, r2)
		}
		if r2.ClusterComm != 0 || r2.BoundMessages != 0 {
			t.Errorf("member %d paid again: %+v", m, r2)
		}
	}
}

func TestCloakErrors(t *testing.T) {
	users := testUsers(300, 3)
	sys, err := NewSystem(users, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Cloak(-1); err == nil {
		t.Error("negative host should error")
	}
	if _, err := sys.Cloak(300); err == nil {
		t.Error("out-of-range host should error")
	}
	if sys.ClusterOf(-1) != nil || sys.ClusterOf(5) != nil {
		t.Error("ClusterOf should be nil for invalid/uncloaked users")
	}
}

func TestCloakNotEnoughUsers(t *testing.T) {
	// Two isolated users can never reach K=5.
	users := []Point{{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}, {0.3, 0.7}, {0.7, 0.3}}
	cfg := testConfig()
	cfg.K = 5
	cfg.Delta = 0.001
	sys, err := NewSystem(users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Cloak(0)
	if !errors.Is(err, ErrNotEnoughUsers) {
		t.Errorf("err = %v, want ErrNotEnoughUsers", err)
	}
}

func TestCloakAllModesAndBounds(t *testing.T) {
	for _, mode := range []Mode{ModeDistributed, ModeCentralized} {
		for _, bound := range []BoundAlgorithm{BoundSecure, BoundLinear, BoundExponential, BoundOptimal} {
			users := testUsers(300, 4)
			cfg := testConfig()
			cfg.Mode = mode
			cfg.Bound = bound
			sys, err := NewSystem(users, cfg)
			if err != nil {
				t.Fatalf("mode=%v bound=%v: %v", mode, bound, err)
			}
			res, err := sys.Cloak(7)
			if err != nil {
				t.Fatalf("mode=%v bound=%v: %v", mode, bound, err)
			}
			if !res.Region.Contains(users[7]) || res.ClusterSize < cfg.K {
				t.Errorf("mode=%v bound=%v: bad result %+v", mode, bound, res)
			}
		}
	}
}

func TestCentralizedModeAmortizes(t *testing.T) {
	users := testUsers(400, 5)
	cfg := testConfig()
	cfg.Mode = ModeCentralized
	sys, err := NewSystem(users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Cloak(0)
	if err != nil {
		t.Fatal(err)
	}
	if first.ClusterComm != 400 {
		t.Errorf("first centralized request cost = %d, want 400", first.ClusterComm)
	}
	second, err := sys.Cloak(200)
	if err != nil {
		t.Fatal(err)
	}
	if second.ClusterComm != 0 || !second.CachedCluster {
		t.Errorf("second centralized request: %+v", second)
	}
}

// TestCentralizedRefusedFirstRequestKeepsBill: a sub-k refusal is not
// billed, so the population's proximity uploads are billed to the first
// served cloak rather than lost with the refusal.
func TestCentralizedRefusedFirstRequestKeepsBill(t *testing.T) {
	users := []Point{
		{0.5, 0.5}, {0.502, 0.5}, {0.5, 0.502}, {0.502, 0.502}, {0.504, 0.5}, {0.5, 0.504},
		{0.9, 0.9}, // isolated: no peer within Delta
	}
	cfg := testConfig()
	cfg.K = 3
	cfg.Delta = 0.01
	cfg.Mode = ModeCentralized
	sys, err := NewSystem(users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Cloak(6); !errors.Is(err, ErrNotEnoughUsers) {
		t.Fatalf("isolated host: err = %v, want ErrNotEnoughUsers", err)
	}
	res, err := sys.Cloak(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterComm != len(users) || res.CachedCluster {
		t.Errorf("first served cloak: ClusterComm=%d CachedCluster=%v, want %d/false",
			res.ClusterComm, res.CachedCluster, len(users))
	}
	if res, err := sys.Cloak(1); err != nil || res.ClusterComm != 0 || !res.CachedCluster {
		t.Errorf("second served cloak: %+v, %v; want a free cached cluster", res, err)
	}
}

func TestCloakOptimalTighterThanProgressive(t *testing.T) {
	usersA := testUsers(300, 6)
	usersB := testUsers(300, 6)
	cfgOpt := testConfig()
	cfgOpt.Bound = BoundOptimal
	cfgExp := testConfig()
	cfgExp.Bound = BoundExponential
	sysOpt, err := NewSystem(usersA, cfgOpt)
	if err != nil {
		t.Fatal(err)
	}
	sysExp, err := NewSystem(usersB, cfgExp)
	if err != nil {
		t.Fatal(err)
	}
	rOpt, err := sysOpt.Cloak(11)
	if err != nil {
		t.Fatal(err)
	}
	rExp, err := sysExp.Cloak(11)
	if err != nil {
		t.Fatal(err)
	}
	if rOpt.Region.Area() > rExp.Region.Area()+1e-15 {
		t.Errorf("optimal area %v should not exceed exponential %v",
			rOpt.Region.Area(), rExp.Region.Area())
	}
}

func TestCloakConcurrentRequests(t *testing.T) {
	users := testUsers(500, 7)
	sys, err := NewSystem(users, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(host int) {
			defer wg.Done()
			if _, err := sys.Cloak(host * 7 % 500); err != nil && !errors.Is(err, ErrNotEnoughUsers) {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
