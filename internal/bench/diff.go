package bench

import (
	"fmt"
	"math"
	"sort"
)

// DefaultThreshold is the relative mean movement (in the bad direction)
// that fails the gate.
const DefaultThreshold = 0.15

// DefaultNoiseSigmas is how many pooled standard deviations the mean
// movement must exceed before the gate trusts it: below that, the
// measurement is noise and the delta is reported as a warning, never a
// failure.
const DefaultNoiseSigmas = 2.0

// higherIsBetter gives each required metric its good direction.
var higherIsBetter = map[string]bool{
	MetricInitialBuildMs: false,
	MetricRebuildMs:      false,
	MetricThroughputRPS:  true,
	MetricCloakP50Ns:     false,
	MetricCloakP95Ns:     false,
	MetricCloakP99Ns:     false,
}

// DiffOptions tunes the gate.
type DiffOptions struct {
	// Threshold is the relative regression that fails (default 0.15).
	Threshold float64
	// NoiseSigmas is the significance requirement (default 2.0).
	NoiseSigmas float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.NoiseSigmas == 0 {
		o.NoiseSigmas = DefaultNoiseSigmas
	}
	return o
}

// Delta is one (cell, metric) comparison.
type Delta struct {
	Cell   string `json:"cell"`
	Metric string `json:"metric"`
	Base   Metric `json:"base"`
	Cur    Metric `json:"cur"`
	// Rel is the relative movement in the bad direction: positive means
	// worse, negative means better.
	Rel float64 `json:"rel"`
}

func (d Delta) String() string {
	arrow := "worse"
	if d.Rel < 0 {
		arrow = "better"
	}
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%.1f%% %s, std %.3g/%.3g)",
		d.Cell, d.Metric, d.Base.Mean, d.Cur.Mean, math.Abs(d.Rel)*100, arrow, d.Base.Std, d.Cur.Std)
}

// DiffResult is the gate's verdict: Regressions and Drift are what fail
// the run; Suspects are bad-direction moves past the threshold that
// the noise rule could not confirm; Warnings cover structural
// mismatches (missing cells, changed grids, environment drift).
type DiffResult struct {
	Regressions []Delta `json:"regressions"`
	// Drift lists the cells whose deterministic outcome changed although
	// both reports ran the same cell config: behavior, not just speed,
	// differs, which breaks the determinism contract.
	Drift    []string `json:"drift"`
	Suspects []Delta  `json:"suspects"`
	Improved []Delta  `json:"improved"`
	Warnings []string `json:"warnings"`
}

// OK reports whether the gate passes.
func (r DiffResult) OK() bool { return len(r.Regressions) == 0 && len(r.Drift) == 0 }

// Diff compares a current run against a baseline cell-by-cell with a
// noise-aware threshold: a metric regresses only when its mean moved
// more than opt.Threshold in the bad direction AND the movement
// exceeds opt.NoiseSigmas pooled standard deviations — "fail loudly on
// >15% mean regression when std allows the call". A cell whose
// determinism block changed under an identical cell config fails too.
// Cells or metrics present on only one side produce warnings, not
// failures, so a grid extension does not brick the gate.
func Diff(base, cur *Report, opt DiffOptions) DiffResult {
	opt = opt.withDefaults()
	var res DiffResult
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"GOMAXPROCS differs (base %d, cur %d): timing comparison is cross-machine",
			base.GOMAXPROCS, cur.GOMAXPROCS))
	}
	if base.GoVersion != cur.GoVersion {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"Go version differs (base %s, cur %s)", base.GoVersion, cur.GoVersion))
	}
	baseCells := make(map[string]CellResult, len(base.Cells))
	for _, c := range base.Cells {
		baseCells[c.ID] = c
	}
	curSeen := make(map[string]bool, len(cur.Cells))
	for _, cc := range cur.Cells {
		curSeen[cc.ID] = true
		bc, ok := baseCells[cc.ID]
		if !ok {
			res.Warnings = append(res.Warnings, fmt.Sprintf("cell %s: new (not in baseline)", cc.ID))
			continue
		}
		if bc.Determinism != cc.Determinism &&
			base.Grid.CellConfig == cur.Grid.CellConfig {
			res.Drift = append(res.Drift, fmt.Sprintf(
				"cell %s: deterministic outcome changed (served %d->%d, transcript %.8s->%.8s) — behavior, not just speed, differs",
				cc.ID, bc.Determinism.Served, cc.Determinism.Served,
				bc.Determinism.TranscriptSHA256, cc.Determinism.TranscriptSHA256))
		}
		for _, key := range RequiredMetrics() {
			bm, bok := bc.Metrics[key]
			cm, cok := cc.Metrics[key]
			if !bok || !cok {
				res.Warnings = append(res.Warnings, fmt.Sprintf("cell %s: metric %s missing on one side", cc.ID, key))
				continue
			}
			if bm.Mean == 0 {
				continue // nothing to be relative to
			}
			rel := (cm.Mean - bm.Mean) / math.Abs(bm.Mean)
			if higherIsBetter[key] {
				rel = -rel
			}
			d := Delta{Cell: cc.ID, Metric: key, Base: bm, Cur: cm, Rel: rel}
			switch {
			case rel <= -opt.Threshold:
				res.Improved = append(res.Improved, d)
			case rel > opt.Threshold:
				// Past the threshold in the bad direction; fail only
				// when the movement clears the noise floor.
				noise := opt.NoiseSigmas * math.Max(bm.Std, cm.Std)
				if math.Abs(cm.Mean-bm.Mean) > noise {
					res.Regressions = append(res.Regressions, d)
				} else {
					res.Suspects = append(res.Suspects, d)
				}
			}
		}
	}
	for id := range baseCells {
		if !curSeen[id] {
			res.Warnings = append(res.Warnings, fmt.Sprintf("cell %s: dropped (in baseline only)", id))
		}
	}
	for _, s := range []*[]Delta{&res.Regressions, &res.Suspects, &res.Improved} {
		sort.Slice(*s, func(i, j int) bool {
			if (*s)[i].Rel != (*s)[j].Rel {
				return (*s)[i].Rel > (*s)[j].Rel
			}
			if (*s)[i].Cell != (*s)[j].Cell {
				return (*s)[i].Cell < (*s)[j].Cell
			}
			return (*s)[i].Metric < (*s)[j].Metric
		})
	}
	sort.Strings(res.Drift)
	sort.Strings(res.Warnings)
	return res
}
