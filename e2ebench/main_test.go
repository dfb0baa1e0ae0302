package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"nonexposure/internal/service"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload once at a tiny population, untraced and
// traced, and checks that every named metric prints with its unit and
// lands in the result with it. Ingest runs too, although BENCHMARK.json
// does not list it.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	workloads := []string{workServe, workChurn, workIngest}
	for _, wl := range spec.Workloads {
		known := false
		for _, w := range workloads {
			known = known || w == wl.Name
		}
		if !known {
			t.Errorf("BENCHMARK.json lists unknown workload %q", wl.Name)
		}
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 3, seconds: 1, trace: trace, users: 1500, k: 5, setups: 2, outDir: t.TempDir()}
			var out bytes.Buffer
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", wl, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			// Untraced runs report the end-to-end metrics; traced runs the
			// per-layer ones, and print the end-to-end ones in the overhead
			// table.
			want := spec.PerLayer
			if !trace {
				want = spec.EndToEnd
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics in the result, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s: got %+v, want unit %s", wl, trace, m.Name, got, m.Unit)
				}
				if !printed(out.String(), m.Name, m.Unit) {
					t.Errorf("%s trace=%t: metric %s with unit %s not printed", wl, trace, m.Name, m.Unit)
				}
			}
			if trace {
				for _, m := range spec.EndToEnd {
					if !printed(out.String(), m.Name, m.Unit) {
						t.Errorf("%s: end-to-end metric %s not in the overhead table", wl, m.Name)
					}
				}
				if !strings.Contains(out.String(), "where the time goes: rotate") {
					t.Errorf("%s: no where-the-time-goes table", wl)
				}
			}
		}
	}
}

// printed reports whether some output line names the metric and ends
// with its unit.
func printed(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[len(f)-1] == unit {
			return true
		}
	}
	return false
}

func TestCheckAnswerRejectsDoctoredClusters(t *testing.T) {
	const k, n = 5, 40
	good := []int32{3, 8, 13, 21, 34}
	if err := checkAnswer(n, 13, good, k, k); err != nil {
		t.Fatalf("correct cluster rejected: %v", err)
	}
	doctored := map[string]struct {
		host    int32
		members []int32
		effK    int
	}{
		"k-1 members":                   {13, good[:k-1], k},
		"missing its host":              {9, good, k},
		"below the claimed effective k": {13, good, k + 1},
		"host repeated k times":         {13, []int32{13, 13, 13, 13, 13}, k},
		"a member repeated":             {13, []int32{3, 8, 13, 21, 34, 8}, k},
		"padded with unknown users":     {13, []int32{3, 8, 13, 40, 41}, k},
		"a negative member":             {13, []int32{3, 8, 13, 21, -1}, k},
	}
	for name, d := range doctored {
		if err := checkAnswer(n, d.host, d.members, k, d.effK); err == nil {
			t.Errorf("cluster %s accepted", name)
		}
	}
}

func TestCheckAnswerCountsDoctoredClustersAsFailures(t *testing.T) {
	in := &inputs{n: 10, k: 3}
	var tl tally
	tl.cloak(in, 1, nil, nil)
	if tl.failed != 1 {
		t.Errorf("empty answer: failed=%d, want 1", tl.failed)
	}
	tl.cloak(in, 1, &service.CloakPayload{Cluster: []int32{1, 1, 1}}, nil)
	if tl.failed != 2 || tl.served != 0 {
		t.Errorf("host repeated k times: failed=%d served=%d, want 2 and 0", tl.failed, tl.served)
	}
}

func TestCompareRejectsWrongMemberSets(t *testing.T) {
	ref := &reference{want: [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, nil}}
	if n, err := ref.compare([][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, nil}); n != 0 || err != nil {
		t.Fatalf("matching sweep: %d wrong, %v", n, err)
	}
	// A served answer with one member swapped, and a refusal the
	// reference would have served.
	if n, _ := ref.compare([][]int32{{0, 1, 3}, {0, 1, 2}, nil, nil}); n != 2 {
		t.Errorf("doctored sweep: %d wrong, want 2", n)
	}
	// Serving a user the reference refuses is wrong too.
	if n, _ := ref.compare([][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3, 4, 5}}); n != 1 {
		t.Errorf("served an unclusterable user: %d wrong, want 1", n)
	}
}

func TestDigestIsOrderSensitiveAndStable(t *testing.T) {
	a := [][]int32{{0, 1}, {0, 1}, nil}
	if digest(a) != digest([][]int32{{0, 1}, {0, 1}, nil}) {
		t.Error("equal answers, different digests")
	}
	if digest(a) == digest([][]int32{{0, 1}, nil, {0, 1}}) {
		t.Error("different answers, same digest")
	}
}

func TestWindowedQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	// A burst confined to one window does not move the windowed p99.
	for i := 0; i < 100; i++ {
		xs[i] = 1000
	}
	if got := windowed(xs, 0.99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}
