package admin

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"nonexposure/internal/metrics"
)

// ClusterSource is what the cluster admin endpoints need from a
// coordinator. An interface rather than the concrete type so this
// package never imports internal/cluster (which imports admin for its
// in-process shard spawner).
type ClusterSource interface {
	// Shards is the number of shards the coordinator fronts.
	Shards() int
	// Metrics is the coordinator's own front-end request accounting.
	Metrics() *metrics.RequestMetrics
	// ClusterMetrics is the routing/replay accounting (may be nil).
	ClusterMetrics() *metrics.ClusterMetrics
}

// ClusterHandler is the admin HTTP handler for a coordinator process:
// /metrics with the cloakd_cluster_* series, /healthz, and pprof. The
// per-shard pipeline metrics live on the shards' own admin endpoints —
// the coordinator reports routing, not rebuilding.
type ClusterHandler struct {
	src ClusterSource
	mux *http.ServeMux
}

// NewCluster builds the admin handler for a coordinator.
func NewCluster(src ClusterSource) *ClusterHandler {
	h := &ClusterHandler{src: src, mux: http.NewServeMux()}
	h.mux.HandleFunc("/metrics", h.handleMetrics)
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	h.mux.HandleFunc("/debug/pprof/", pprof.Index)
	h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return h
}

// ServeHTTP dispatches to the cluster admin mux.
func (h *ClusterHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *ClusterHandler) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteClusterMetrics(w, h.src.Metrics().Snapshot(), h.src.ClusterMetrics().Snapshot())
}

func (h *ClusterHandler) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"status": "ok",
		"role":   "coordinator",
		"shards": h.src.Shards(),
	})
}

// WriteClusterMetrics renders a coordinator's request and routing
// snapshots in the Prometheus text exposition format. Like WriteMetrics
// it is a pure function of its inputs so the output can be
// golden-tested.
func WriteClusterMetrics(w io.Writer, req metrics.RequestSnapshot, cl metrics.ClusterSnapshot) {
	// The coordinator's own front end, in the same series dashboards
	// already read for a single cloakd.
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

	// The cluster tier proper.
	writeScalar(w, "cloakd_cluster_shards", "gauge",
		"Shards this coordinator routes to.", float64(cl.Shards))
	fmt.Fprintln(w, "# HELP cloakd_cluster_routed_ops_total Operations forwarded to shards, by operation.")
	fmt.Fprintln(w, "# TYPE cloakd_cluster_routed_ops_total counter")
	for _, op := range cl.Routed {
		fmt.Fprintf(w, "cloakd_cluster_routed_ops_total{op=%q} %d\n", op.Op, op.Count)
	}
	writeScalar(w, "cloakd_cluster_border_replays_total", "counter",
		"Users re-homed to another shard at a rotation, fail-over re-homes included.", float64(cl.BorderReplays))
	writeScalar(w, "cloakd_cluster_rotations_total", "counter",
		"Completed cluster-wide rotations.", float64(cl.Rotations))
	fmt.Fprintln(w, "# HELP cloakd_cluster_shard_epoch Last observed published epoch, per shard.")
	fmt.Fprintln(w, "# TYPE cloakd_cluster_shard_epoch gauge")
	for i, e := range cl.ShardEpochs {
		fmt.Fprintf(w, "cloakd_cluster_shard_epoch{shard=\"%d\"} %d\n", i, e)
	}
	fmt.Fprintln(w, "# HELP cloakd_cluster_shard_epoch_lag Distance from the freshest shard's epoch, per shard.")
	fmt.Fprintln(w, "# TYPE cloakd_cluster_shard_epoch_lag gauge")
	for i, lag := range cl.EpochLag {
		fmt.Fprintf(w, "cloakd_cluster_shard_epoch_lag{shard=\"%d\"} %d\n", i, lag)
	}

	// Batched ordered forwarding and shard fail-over.
	writeScalar(w, "cloakd_cluster_upload_batches_total", "counter",
		"upload_batch round trips sent to shards by the ordered senders.", float64(cl.Batches))
	writeScalar(w, "cloakd_cluster_upload_batched_ops_total", "counter",
		"Individual uploads carried inside those batches.", float64(cl.BatchedOps))
	fmt.Fprintln(w, "# HELP cloakd_cluster_shard_state Health state per shard: 0 up, 1 failing, 2 dead.")
	fmt.Fprintln(w, "# TYPE cloakd_cluster_shard_state gauge")
	for i, s := range cl.ShardStates {
		fmt.Fprintf(w, "cloakd_cluster_shard_state{shard=\"%d\"} %d\n", i, s)
	}
	fmt.Fprintln(w, "# HELP cloakd_cluster_shard_retries_total Forward attempts retried after a transport failure, per shard.")
	fmt.Fprintln(w, "# TYPE cloakd_cluster_shard_retries_total counter")
	for i, r := range cl.ShardRetries {
		fmt.Fprintf(w, "cloakd_cluster_shard_retries_total{shard=\"%d\"} %d\n", i, r)
	}
	writeScalar(w, "cloakd_cluster_failovers_total", "counter",
		"Shards declared dead and failed over to survivors.", float64(cl.Failovers))
}
