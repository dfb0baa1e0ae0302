package workload

import (
	"reflect"
	"testing"
)

func TestHostsDistinctAndDeterministic(t *testing.T) {
	a, err := Hosts(1000, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 200 {
		t.Fatalf("len = %d", len(a))
	}
	seen := make(map[int32]bool)
	for _, h := range a {
		if h < 0 || h >= 1000 {
			t.Fatalf("host %d out of range", h)
		}
		if seen[h] {
			t.Fatalf("duplicate host %d", h)
		}
		seen[h] = true
	}
	b, err := Hosts(1000, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed should reproduce the same workload")
	}
	c, err := Hosts(1000, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
}

func TestHostsEdgeCases(t *testing.T) {
	if _, err := Hosts(10, 11, 1); err == nil {
		t.Error("s > n should error")
	}
	if _, err := Hosts(-1, 0, 1); err == nil {
		t.Error("negative n should error")
	}
	if _, err := Hosts(10, -1, 1); err == nil {
		t.Error("negative s should error")
	}
	hs, err := Hosts(10, 0, 1)
	if err != nil || len(hs) != 0 {
		t.Errorf("s=0: %v %v", hs, err)
	}
	hs, err = Hosts(5, 5, 1)
	if err != nil || len(hs) != 5 {
		t.Errorf("s=n: %v %v", hs, err)
	}
}

// TestWorkloadGoldens pins the exact request streams for one seed, so a
// cross-run (not just cross-call) determinism break — e.g. a stdlib rng
// change or an accidental reordering of draws — fails loudly. The bench
// harness' reproducibility contract depends on these streams.
func TestWorkloadGoldens(t *testing.T) {
	golden := []struct {
		name string
		got  func() ([]int32, error)
		want []int32
	}{
		{"Hosts", func() ([]int32, error) { return Hosts(1000, 8, 42) },
			[]int32{459, 954, 99, 787, 858, 17, 934, 655}},
		{"ZipfHosts", func() ([]int32, error) { return ZipfHosts(1000, 8, 1.0, 42) },
			[]int32{596, 190, 645, 244, 412, 329, 787, 284}},
	}
	for _, g := range golden {
		hs, err := g.got()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !reflect.DeepEqual(hs, g.want) {
			t.Errorf("%s(seed 42) = %v, want %v", g.name, hs, g.want)
		}
	}
}
