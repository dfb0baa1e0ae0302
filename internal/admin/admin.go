// Package admin serves the operator-facing HTTP endpoints of a cloakd
// process: Prometheus-style /metrics, JSON /healthz and /epochz,
// /tracez span-tree dumps, and the standard net/http/pprof profiler
// under /debug/pprof/.
//
// The admin server is deliberately separate from the cloaking protocol
// listener: it speaks HTTP (the protocol port speaks length-prefixed
// JSON), it is meant to be bound to localhost or a management network,
// and taking it down never affects request serving. All endpoints are
// read-only views over the same metrics the v1 `stats`/`epoch` ops
// expose — /epochz in particular mirrors the v1 epoch payload field for
// field.
package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
)

// Handler is the admin HTTP handler for one service.Server.
type Handler struct {
	srv *service.Server
	mux *http.ServeMux
}

// New builds the admin handler for srv.
func New(srv *service.Server) *Handler {
	h := &Handler{srv: srv, mux: http.NewServeMux()}
	h.mux.HandleFunc("/metrics", h.handleMetrics)
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	h.mux.HandleFunc("/epochz", h.handleEpochz)
	h.mux.HandleFunc("/tracez", h.handleTracez)
	h.mux.HandleFunc("/debug/pprof/", pprof.Index)
	h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return h
}

// ServeHTTP dispatches to the admin mux.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, h.srv.Metrics().Snapshot(), h.srv.EpochMetrics().Snapshot())
}

func (h *Handler) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := h.srv.Manager().Status()
	writeJSON(w, map[string]any{
		"status":    "ok",
		"epoch":     st.Epoch,
		"published": st.Published,
		"users":     st.Users,
	})
}

func (h *Handler) handleEpochz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, service.NewEpochPayload(h.srv.Manager().Status()))
}

func (h *Handler) handleTracez(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	spans := h.srv.Tracer().Recent()
	if len(spans) == 0 {
		fmt.Fprintln(w, "no traces recorded (start cloakd with -trace to enable)")
		return
	}
	for _, sp := range spans {
		fmt.Fprintln(w, sp.String())
		fmt.Fprintln(w)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort: the client hung up
}

// WriteMetrics renders the request and epoch snapshots in the
// Prometheus text exposition format (version 0.0.4). It is a pure
// function of its inputs so the output can be golden-tested.
func WriteMetrics(w io.Writer, req metrics.RequestSnapshot, ep metrics.EpochSnapshot) {
	// Request counters, per op.
	fmt.Fprintln(w, "# HELP cloakd_requests_total Requests handled, by protocol operation.")
	fmt.Fprintln(w, "# TYPE cloakd_requests_total counter")
	for _, op := range req.Ops {
		fmt.Fprintf(w, "cloakd_requests_total{op=%q} %d\n", op.Op, op.Count)
	}
	fmt.Fprintln(w, "# HELP cloakd_request_errors_total Requests answered with an error, by protocol operation.")
	fmt.Fprintln(w, "# TYPE cloakd_request_errors_total counter")
	for _, op := range req.Ops {
		fmt.Fprintf(w, "cloakd_request_errors_total{op=%q} %d\n", op.Op, op.Errors)
	}

	writeHistogram(w, "cloakd_request_latency_seconds",
		"Request handling latency across all operations.", req.Hist)

	// Epoch pipeline counters and gauges.
	writeScalar(w, "cloakd_epoch_builds_total", "counter",
		"Completed epoch rebuilds.", float64(ep.Builds))
	writeScalar(w, "cloakd_epoch_build_failures_total", "counter",
		"Epoch rebuilds that failed.", float64(ep.BuildFails))
	writeScalar(w, "cloakd_epoch_swaps_total", "counter",
		"Generation pointer swaps (published epochs).", float64(ep.Swaps))
	writeScalar(w, "cloakd_epoch_pending_builds", "gauge",
		"Rebuilds queued or in flight.", float64(ep.Pending))
	writeScalar(w, "cloakd_epoch_shards_total", "counter",
		"WPG connected components (shards) across all successful rebuilds.", float64(ep.ShardsTotal))
	writeScalar(w, "cloakd_epoch_shards_rebuilt_total", "counter",
		"Shards that re-ran clustering (the rest were spliced from the previous generation).", float64(ep.ShardsRebuilt))
	writeScalar(w, "cloakd_epoch_staleness_seconds", "gauge",
		"Age of the published generation.", ep.Staleness.Seconds())

	// Privacy-profile gauges (both zero while every user runs the
	// default profile).
	writeScalar(w, "cloakd_profiled_users", "gauge",
		"Users with a non-default privacy profile in the latest generation's snapshot.", float64(ep.Profiled))
	writeScalar(w, "cloakd_degraded_users", "gauge",
		"Users served with their MaxArea bound exceeded in the latest generation.", float64(ep.Degraded))

	writeHistogram(w, "cloakd_epoch_build_seconds",
		"End-to-end epoch rebuild duration.", ep.BuildHist)

	// Per-stage rebuild timing as sum/count pairs (a full histogram per
	// stage would be noise; mean and rate are what dashboards plot).
	fmt.Fprintln(w, "# HELP cloakd_epoch_build_stage_seconds_sum Total time spent per rebuild stage.")
	fmt.Fprintln(w, "# TYPE cloakd_epoch_build_stage_seconds_sum counter")
	for _, st := range ep.BuildStages {
		fmt.Fprintf(w, "cloakd_epoch_build_stage_seconds_sum{stage=%q} %s\n", st.Stage, formatFloat(st.Total.Seconds()))
	}
	fmt.Fprintln(w, "# HELP cloakd_epoch_build_stage_seconds_count Observations per rebuild stage.")
	fmt.Fprintln(w, "# TYPE cloakd_epoch_build_stage_seconds_count counter")
	for _, st := range ep.BuildStages {
		fmt.Fprintf(w, "cloakd_epoch_build_stage_seconds_count{stage=%q} %d\n", st.Stage, st.Count)
	}
}

func writeScalar(w io.Writer, name, typ, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, formatFloat(v))
}

// writeHistogram emits a HistogramSnapshot as cumulative le-labelled
// buckets. The internal buckets are powers of two in nanoseconds;
// their upper edges are converted to seconds for the le labels. Empty
// trailing buckets are elided (the +Inf bucket always carries the
// total, so the cumulative contract holds).
func writeHistogram(w io.Writer, name, help string, h metrics.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	last := -1
	for i, c := range h.Counts {
		if c > 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += h.Counts[i]
		le := float64(metrics.BucketUpperNs(i)) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Total)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.SumNs)/1e9))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Total)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
