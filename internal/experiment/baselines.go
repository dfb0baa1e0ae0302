package experiment

import (
	"fmt"

	"nonexposure/internal/exposure"
	"nonexposure/internal/metrics"
	"nonexposure/internal/workload"
)

// RunExposureComparison is an extension experiment (not a paper figure):
// it quantifies the cost of *non-exposure* by comparing the paper's
// t-connectivity cloaking against the two classic exposure-based schemes
// from the related work — Gruteser–Grunwald quadtree cloaking and
// hilbASR — which both require a trusted party to see every coordinate.
//
// The table reports, per k, the average cloaked-region area (optimal
// bounding for t-Conn so the comparison isolates clustering quality) over
// the S-request workload.
func RunExposureComparison(p Params, ks []int) (*metrics.Table, error) {
	env, err := NewEnv(p)
	if err != nil {
		return nil, err
	}
	hosts, err := workload.Hosts(env.Graph.NumVertices(), p.Requests, p.Seed+1)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable(
		"Extension: non-exposure vs. exposure-based cloaking (avg region area)",
		"k", "t-Conn (non-exposure)", "quadtree (exposed)", "hilbASR (exposed)")

	qt, err := exposure.NewQuadtree(env.Points, 16)
	if err != nil {
		return nil, err
	}

	for _, k := range ks {
		// Non-exposure: the paper's distributed algorithm with optimal
		// bounding of the resulting cluster.
		tconn, err := RunClusteringWorkload(env, k, p.Requests, AlgoTConnDist)
		if err != nil {
			return nil, fmt.Errorf("k=%d t-Conn: %w", k, err)
		}

		// Quadtree: smallest quadrant holding >= k users.
		var quadArea metrics.Mean
		for _, h := range hosts {
			region, _, err := qt.Cloak(h, k)
			if err != nil {
				continue
			}
			quadArea.Add(region.Area())
		}

		// hilbASR: Hilbert bucket bounding boxes.
		hasr, err := exposure.NewHilbASR(env.Points, k, 12)
		if err != nil {
			return nil, fmt.Errorf("k=%d hilbASR: %w", k, err)
		}
		var hilbArea metrics.Mean
		for _, h := range hosts {
			region, _, err := hasr.Cloak(h)
			if err != nil {
				continue
			}
			hilbArea.Add(region.Area())
		}

		t.AddRow(k, tconn.AvgArea, quadArea.Value(), hilbArea.Value())
	}
	return t, nil
}
