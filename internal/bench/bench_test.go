package bench

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestGridCellsCrossProduct(t *testing.T) {
	g := DefaultGrid()
	cells := g.Cells()
	if len(g.GOMAXPROCS) != 2 {
		t.Fatalf("default GOMAXPROCS axis = %v, want one and two cores", g.GOMAXPROCS)
	}
	want := len(g.Populations) * len(g.Ks) * len(g.ChurnFracs) * len(g.Workers) * len(g.GOMAXPROCS)
	if len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.ID(), err)
		}
		if seen[c.ID()] {
			t.Errorf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
	}
	if err := g.Validate(); err != nil {
		t.Errorf("DefaultGrid invalid: %v", err)
	}
	if err := TinyGrid().Validate(); err != nil {
		t.Errorf("TinyGrid invalid: %v", err)
	}
}

func TestGridValidateRejects(t *testing.T) {
	g := TinyGrid()
	g.Populations = nil
	if err := g.Validate(); err == nil {
		t.Error("empty axis should error")
	}
	g = TinyGrid()
	g.Reps = 0
	if err := g.Validate(); err == nil {
		t.Error("0 reps should error")
	}
	g = TinyGrid()
	g.ChurnFracs = []float64{1.5}
	if err := g.Validate(); err == nil {
		t.Error("churn > 1 should error")
	}
	g = TinyGrid()
	g.Ticks = 0
	if err := g.Validate(); err == nil {
		t.Error("0 ticks should error")
	}
	if _, err := RunCell(CellParams{N: 0, K: 5, ChurnFrac: 0.1, Workers: 1}, TinyGrid().CellConfig); err == nil {
		t.Error("bad cell params should error")
	}
}

// TestRunCellDeterministic is the core reproducibility contract: two
// independent runs of the same cell with the same seed must agree on
// every non-timing field — outcome counts, epoch accounting, and the
// transcript digest — byte-identically.
func TestRunCellDeterministic(t *testing.T) {
	cfg := CellConfig{Ticks: 2, Requests: 150, Theta: 0.8, Seed: 42, Reps: 1}
	p := CellParams{N: 250, K: 4, ChurnFrac: 0.1, Workers: 2}
	a, err := RunCell(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Determinism != b.Determinism {
		t.Errorf("determinism mismatch:\n  a: %+v\n  b: %+v", a.Determinism, b.Determinism)
	}
	if a.Determinism.Served+a.Determinism.Unclusterable != cfg.Requests {
		t.Errorf("served %d + unclusterable %d != requests %d",
			a.Determinism.Served, a.Determinism.Unclusterable, cfg.Requests)
	}
	if a.Determinism.Served == 0 {
		t.Error("cell served nothing — parameters too hostile to measure anything")
	}
	for _, key := range RequiredMetrics() {
		if _, ok := a.Metrics[key]; !ok {
			t.Errorf("metric %s missing", key)
		}
	}
	// Reps with the same seed must also agree internally (RunCell
	// fails on divergence); exercise the multi-rep path.
	cfg.Reps = 2
	if _, err := RunCell(p, cfg); err != nil {
		t.Fatalf("multi-rep: %v", err)
	}
}

// TestRunGridTinyEndToEnd runs the CI smoke grid, validates the
// resulting report, and round-trips it through the on-disk format.
func TestRunGridTinyEndToEnd(t *testing.T) {
	g := TinyGrid()
	var lines []string
	rep, err := RunGrid(g, func(format string, args ...any) {
		lines = append(lines, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Rev = "test"
	if err := rep.Validate(); err != nil {
		t.Fatalf("tiny grid report invalid: %v", err)
	}
	if len(rep.Cells) != len(g.Cells()) {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), len(g.Cells()))
	}
	if len(lines) == 0 {
		t.Error("no progress lines")
	}

	path := filepath.Join(t.TempDir(), Filename(rep.Rev))
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Error("report did not round-trip through disk")
	}

	// The self-diff of any report is clean — the gate's fixed point.
	if res := Diff(rep, back, DiffOptions{}); !res.OK() || len(res.Suspects) > 0 {
		t.Errorf("self-diff not clean: %+v", res)
	}
}

func TestReportValidateRejects(t *testing.T) {
	mk := func() *Report {
		r := fakeReport(nil, 0.01)
		return r
	}
	cases := []struct {
		name   string
		break_ func(*Report)
		want   string
	}{
		{"schema", func(r *Report) { r.Schema = 99 }, "schema"},
		{"rev", func(r *Report) { r.Rev = "" }, "rev missing"},
		{"goversion", func(r *Report) { r.GoVersion = "" }, "go_version"},
		{"gomaxprocs", func(r *Report) { r.GOMAXPROCS = 0 }, "gomaxprocs"},
		{"nocells", func(r *Report) { r.Cells = nil }, "no cells"},
		{"metricmissing", func(r *Report) { delete(r.Cells[0].Metrics, MetricRebuildMs) }, "rebuild_ms missing"},
		{"badid", func(r *Report) { r.Cells[0].ID = "bogus" }, "does not match params"},
		{"accounting", func(r *Report) { r.Cells[0].Determinism.Served++ }, "!= requests"},
		{"digest", func(r *Report) { r.Cells[0].Determinism.TranscriptSHA256 = "xy" }, "sha256"},
		{"shards", func(r *Report) {
			r.Cells[0].Determinism.ShardsRebuilt = r.Cells[0].Determinism.ShardsTotal + 1
		}, "shards_rebuilt"},
	}
	for _, tc := range cases {
		r := mk()
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: fixture invalid before break: %v", tc.name, err)
		}
		tc.break_(r)
		err := r.Validate()
		if err == nil {
			t.Errorf("%s: validation passed a broken report", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

// TestReportJSONStable pins the top-level schema keys so an accidental
// field rename breaks a test before it breaks the checked-in baseline.
func TestReportJSONStable(t *testing.T) {
	r := fakeReport(nil, 0.01)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"schema"`, `"rev"`, `"go_version"`, `"gomaxprocs"`, `"grid"`, `"cells"`,
		`"populations"`, `"churn_fracs"`, `"seed"`, `"reps"`,
		`"params"`, `"metrics"`, `"determinism"`, `"mean"`, `"std"`,
		`"transcript_sha256"`, `"shards_total"`,
	} {
		if !strings.Contains(string(b), key) {
			t.Errorf("report JSON missing key %s", key)
		}
	}
}

// TestGOMAXPROCSAxis: the axis is invisible at 0 (cell ID and JSON
// match a grid from before it existed), tags the ID when set, is
// range-checked, and a cell run under it restores the process setting.
func TestGOMAXPROCSAxis(t *testing.T) {
	p := CellParams{N: 300, K: 5, ChurnFrac: 0.1, Workers: 1}
	if p.ID() != "n=300/k=5/churn=0.1/workers=1" {
		t.Errorf("ID at 0 = %q", p.ID())
	}
	if b, _ := json.Marshal(p); strings.Contains(string(b), "gomaxprocs") {
		t.Errorf("JSON at 0 carries the axis: %s", b)
	}
	p.GOMAXPROCS = 1
	if p.ID() != "n=300/k=5/churn=0.1/workers=1/gomaxprocs=1" {
		t.Errorf("ID at 1 = %q", p.ID())
	}
	for _, bad := range []int{-1, MaxGOMAXPROCS + 1} {
		q := p
		q.GOMAXPROCS = bad
		if q.Validate() == nil {
			t.Errorf("gomaxprocs %d accepted", bad)
		}
	}
	before := runtime.GOMAXPROCS(0)
	cfg := TinyGrid().CellConfig
	res, err := RunCell(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Errorf("GOMAXPROCS after the cell = %d, want %d restored", got, before)
	}
	// The outcome is a function of the inputs, not of the core count.
	p.GOMAXPROCS = 0
	ref, err := RunCell(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Determinism != ref.Determinism {
		t.Errorf("determinism differs across GOMAXPROCS: %+v vs %+v", res.Determinism, ref.Determinism)
	}
}
