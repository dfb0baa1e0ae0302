package bench

import (
	"strings"
	"testing"
)

// fakeReport builds a structurally valid single-cell report whose
// metric means can be perturbed per test.
func fakeReport(scale map[string]float64, std float64) *Report {
	g := Grid{
		Populations: []int{100},
		Ks:          []int{5},
		ChurnFracs:  []float64{0.1},
		Workers:     []int{1},
		CellConfig:  CellConfig{Ticks: 1, Requests: 100, Theta: 0.5, Seed: 1, Reps: 3},
	}
	p := g.Cells()[0]
	base := map[string]float64{
		MetricInitialBuildMs: 50,
		MetricRebuildMs:      10,
		MetricThroughputRPS:  1e6,
		MetricCloakP50Ns:     100,
		MetricCloakP95Ns:     200,
		MetricCloakP99Ns:     400,
	}
	ms := make(map[string]Metric)
	for k, v := range base {
		if f, ok := scale[k]; ok {
			v *= f
		}
		ms[k] = Metric{Mean: v, Std: std * v}
	}
	r := newReport(g)
	r.Rev = "test"
	r.Cells = []CellResult{{
		ID:      p.ID(),
		Params:  p,
		Metrics: ms,
		Determinism: Determinism{
			Served: 98, Unclusterable: 2, Epochs: 2, Edges: 10, Clusters: 3,
			ShardsTotal: 4, ShardsRebuilt: 2,
			TranscriptSHA256: strings.Repeat("ab", 32),
		},
	}}
	return r
}

// TestDiffCatchesSyntheticRegression is the acceptance-criterion test:
// a synthetic 20% regression (throughput down, p99 up) with tight std
// must fail the gate.
func TestDiffCatchesSyntheticRegression(t *testing.T) {
	base := fakeReport(nil, 0.01)
	cur := fakeReport(map[string]float64{
		MetricThroughputRPS: 0.80, // 20% slower
		MetricCloakP99Ns:    1.20, // 20% higher tail
	}, 0.01)
	res := Diff(base, cur, DiffOptions{})
	if res.OK() {
		t.Fatalf("gate passed a 20%% regression: %+v", res)
	}
	found := map[string]bool{}
	for _, d := range res.Regressions {
		found[d.Metric] = true
		if d.Rel < 0.15 {
			t.Errorf("regression %s has rel %v < threshold", d.Metric, d.Rel)
		}
	}
	if !found[MetricThroughputRPS] || !found[MetricCloakP99Ns] {
		t.Errorf("regressions = %v, want throughput_rps and cloak_p99_ns", res.Regressions)
	}
}

// TestDiffNoiseAware: the same 20% movement under a std so large the
// movement is within two sigmas must NOT fail the gate — it is
// reported as a suspect instead.
func TestDiffNoiseAware(t *testing.T) {
	base := fakeReport(nil, 0.30) // std = 30% of mean
	cur := fakeReport(map[string]float64{MetricThroughputRPS: 0.80}, 0.30)
	res := Diff(base, cur, DiffOptions{})
	if !res.OK() {
		t.Fatalf("gate failed on a statistically insignificant delta: %+v", res.Regressions)
	}
	if len(res.Suspects) == 0 {
		t.Error("noisy 20% movement should surface as a suspect")
	}
}

func TestDiffPassesOnIdenticalAndImproved(t *testing.T) {
	base := fakeReport(nil, 0.01)
	if res := Diff(base, base, DiffOptions{}); !res.OK() || len(res.Suspects) > 0 || len(res.Improved) > 0 {
		t.Fatalf("self-diff not clean: %+v", res)
	}
	cur := fakeReport(map[string]float64{
		MetricThroughputRPS: 1.5,
		MetricRebuildMs:     0.5,
	}, 0.01)
	res := Diff(base, cur, DiffOptions{})
	if !res.OK() {
		t.Fatalf("gate failed on improvements: %+v", res.Regressions)
	}
	if len(res.Improved) != 2 {
		t.Errorf("improved = %v, want 2 entries", res.Improved)
	}
}

// TestDiffSmallMovementBelowThreshold: a significant but small (10%)
// movement stays under the 15% threshold.
func TestDiffSmallMovementBelowThreshold(t *testing.T) {
	base := fakeReport(nil, 0.001)
	cur := fakeReport(map[string]float64{MetricThroughputRPS: 0.90}, 0.001)
	res := Diff(base, cur, DiffOptions{})
	if !res.OK() {
		t.Fatalf("gate failed under threshold: %+v", res.Regressions)
	}
}

func TestDiffWarnsOnCellMismatch(t *testing.T) {
	base := fakeReport(nil, 0.01)
	// Disjoint cell sets: everything is a warning, nothing a failure.
	other := fakeReport(nil, 0.01)
	other.Cells[0].ID = "n=999/k=5/churn=0.1/workers=1"
	other.Cells[0].Params.N = 999
	res := Diff(base, other, DiffOptions{})
	if !res.OK() {
		t.Fatalf("disjoint grids must not fail: %+v", res.Regressions)
	}
	if len(res.Warnings) < 2 {
		t.Errorf("want new-cell and dropped-cell warnings, got %v", res.Warnings)
	}
}

// TestDiffFailsOnDeterminismDrift: the determinism block is the
// contract, so a changed outcome under the same cell config fails the
// gate even when every timing metric is identical — and only then: a
// changed cell config makes the outcomes incomparable.
func TestDiffFailsOnDeterminismDrift(t *testing.T) {
	base := fakeReport(nil, 0.01)
	for name, drift := range map[string]func(*Determinism){
		"served":     func(d *Determinism) { d.Served, d.Unclusterable = 97, 3 },
		"transcript": func(d *Determinism) { d.TranscriptSHA256 = strings.Repeat("cd", 32) },
		"shards":     func(d *Determinism) { d.ShardsRebuilt++ },
	} {
		cur := fakeReport(nil, 0.01)
		drift(&cur.Cells[0].Determinism)
		res := Diff(base, cur, DiffOptions{})
		if res.OK() || len(res.Drift) != 1 || !strings.Contains(res.Drift[0], "deterministic outcome changed") {
			t.Errorf("%s drift: ok=%v drift=%v", name, res.OK(), res.Drift)
		}
		if len(res.Regressions) != 0 {
			t.Errorf("%s drift: timing regressions %v from identical metrics", name, res.Regressions)
		}
		cur.Grid.Seed++
		if res := Diff(base, cur, DiffOptions{}); !res.OK() {
			t.Errorf("%s drift under a different cell config must not fail: %v", name, res.Drift)
		}
	}
}

func TestDiffCustomThreshold(t *testing.T) {
	base := fakeReport(nil, 0.001)
	cur := fakeReport(map[string]float64{MetricCloakP95Ns: 1.10}, 0.001)
	if res := Diff(base, cur, DiffOptions{Threshold: 0.05}); res.OK() {
		t.Fatal("5% threshold should catch a 10% tail regression")
	}
	if res := Diff(base, cur, DiffOptions{Threshold: 0.20}); !res.OK() {
		t.Fatal("20% threshold should pass a 10% tail regression")
	}
}
