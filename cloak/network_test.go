package cloak

import (
	"context"
	"testing"
)

// TestNetworkSystemMatchesInProcess: on a lossless network every Result
// field equals the in-process system's, for each progressive bound,
// over a host sequence that repeats a host and then asks for a
// cluster-mate of another, so the cached flags and the cached bounding
// rounds are compared too.
func TestNetworkSystemMatchesInProcess(t *testing.T) {
	users := testUsers(250, 11)
	for _, bound := range []BoundAlgorithm{BoundSecure, BoundLinear, BoundExponential} {
		cfg := testConfig()
		cfg.Bound = bound
		inproc, err := NewSystem(users, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nsys, err := NewNetworkSystem(users, cfg, NetworkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer nsys.Close()

		hosts := []int{3, 50, 120, 3}
		cached := 0
		for i := 0; i < len(hosts); i++ {
			host := hosts[i]
			a, errA := inproc.Cloak(host)
			b, errB := nsys.Cloak(host)
			if (errA != nil) != (errB != nil) {
				t.Fatalf("bound %d host %d: error mismatch %v vs %v", bound, host, errA, errB)
			}
			if errA != nil {
				continue
			}
			if a != b {
				t.Errorf("bound %d host %d: network result %+v != in-process %+v", bound, host, b, a)
			}
			if a.CachedRegion {
				cached++
			}
			if i == 1 { // queue a cluster-mate of host 50 last
				for _, m := range inproc.ClusterOf(host) {
					if int(m) != host {
						hosts = append(hosts, int(m))
						break
					}
				}
			}
		}
		if len(hosts) != 5 || cached < 2 {
			t.Errorf("bound %d: hosts %v served %d cached regions, want a cluster-mate and 2 cached", bound, hosts, cached)
		}
		if nsys.MessagesSent() == 0 {
			t.Error("network carried no messages")
		}
		if nsys.MessagesLost() != 0 {
			t.Error("lossless network lost messages")
		}
	}
}

// TestNetworkSystemCloakCtxUsesNetwork: CloakCtx is the same request as
// Cloak on a NetworkSystem — it answers identically on a twin system
// and puts the same messages on the wire.
func TestNetworkSystemCloakCtxUsesNetwork(t *testing.T) {
	users := testUsers(250, 14)
	twins := [2]*NetworkSystem{}
	for i := range twins {
		ns, err := NewNetworkSystem(users, testConfig(), NetworkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer ns.Close()
		twins[i] = ns
	}
	a, errA := twins[0].Cloak(7)
	b, errB := twins[1].CloakCtx(context.Background(), 7)
	if errA != nil || errB != nil {
		t.Fatalf("Cloak = %v, CloakCtx = %v", errA, errB)
	}
	if a != b {
		t.Errorf("CloakCtx result %+v != Cloak %+v", b, a)
	}
	if got, want := twins[1].MessagesSent(), twins[0].MessagesSent(); got == 0 || got != want {
		t.Errorf("CloakCtx put %d messages on the wire, Cloak %d", got, want)
	}
}

// TestNetworkSystemBoundValidation: BoundOptimal needs the members'
// coordinates, which the network never carries, so it is rejected at
// construction; an unknown algorithm fails the request, as on a System.
func TestNetworkSystemBoundValidation(t *testing.T) {
	users := testUsers(250, 15)
	cfg := testConfig()
	cfg.Bound = BoundOptimal
	if ns, err := NewNetworkSystem(users, cfg, NetworkConfig{}); err == nil {
		ns.Close()
		t.Error("NewNetworkSystem accepted BoundOptimal")
	}
	cfg.Bound = BoundAlgorithm(99)
	ns, err := NewNetworkSystem(users, cfg, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if _, err := ns.Cloak(0); err == nil {
		t.Error("unknown bounding algorithm should fail the request")
	}
}

func TestNetworkSystemWithLoss(t *testing.T) {
	users := testUsers(250, 12)
	sys, err := NewNetworkSystem(users, testConfig(), NetworkConfig{
		LossRate:   0.2,
		MaxRetries: 30,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Cloak(9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Region.Contains(users[9]) {
		t.Errorf("region %+v missing host", res.Region)
	}
	if sys.MessagesLost() == 0 {
		t.Error("loss injection at 20% produced no losses")
	}
}

func TestNetworkSystemForcesDistributedMode(t *testing.T) {
	users := testUsers(250, 13)
	cfg := testConfig()
	cfg.Mode = ModeCentralized // should be overridden
	sys, err := NewNetworkSystem(users, cfg, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Cloak(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Cloak(-1); err == nil {
		t.Error("invalid host should error")
	}
}
