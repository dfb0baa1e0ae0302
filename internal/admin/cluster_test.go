package admin

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"nonexposure/internal/metrics"
)

// fakeCoordinator implements ClusterSource without a real cluster.
type fakeCoordinator struct {
	rm *metrics.RequestMetrics
	cm *metrics.ClusterMetrics
}

func (f *fakeCoordinator) Shards() int                             { return 2 }
func (f *fakeCoordinator) Metrics() *metrics.RequestMetrics        { return f.rm }
func (f *fakeCoordinator) ClusterMetrics() *metrics.ClusterMetrics { return f.cm }

func newFakeCoordinator() *fakeCoordinator {
	f := &fakeCoordinator{rm: metrics.NewRequestMetrics(), cm: metrics.NewClusterMetrics()}
	f.cm.SetShards(2)
	f.rm.Observe("upload", 0, true)
	f.cm.ObserveRouted("upload")
	f.cm.ObserveRouted("upload")
	f.cm.ObserveRouted("cloak")
	f.cm.ObserveBorderReplays(3)
	f.cm.ObserveRotation()
	f.cm.SetShardEpoch(0, 5)
	f.cm.SetShardEpoch(1, 3)
	return f
}

func TestClusterHealthz(t *testing.T) {
	h := NewCluster(newFakeCoordinator())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /healthz = %d", rec.Code)
	}
	var body struct {
		Status string `json:"status"`
		Role   string `json:"role"`
		Shards int    `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Role != "coordinator" || body.Shards != 2 {
		t.Errorf("healthz = %+v", body)
	}
}

func TestClusterMetricsEndpoint(t *testing.T) {
	h := NewCluster(newFakeCoordinator())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"cloakd_cluster_shards 2",
		`cloakd_cluster_routed_ops_total{op="upload"} 2`,
		`cloakd_cluster_routed_ops_total{op="cloak"} 1`,
		"cloakd_cluster_border_replays_total 3",
		"cloakd_cluster_shard_epoch{shard=\"1\"} 3",
		"cloakd_cluster_shard_epoch_lag{shard=\"1\"} 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
}

// TestWriteClusterMetricsGolden pins the full exposition format for
// fixed snapshots, exactly like TestWriteMetricsGolden does for the
// single-process series.
func TestWriteClusterMetricsGolden(t *testing.T) {
	req := metrics.RequestSnapshot{
		Total: 3, Errors: 0,
		Ops: []metrics.OpSnapshot{
			{Op: "cloak", Count: 1},
			{Op: "upload", Count: 2},
		},
		Hist: histWith(t, map[int]uint64{2: 3}, 24),
	}
	cl := metrics.ClusterSnapshot{
		Shards: 2,
		Routed: []metrics.RoutedOp{
			{Op: "cloak", Count: 1},
			{Op: "upload", Count: 4},
		},
		RoutedTotal:   5,
		BorderReplays: 2,
		Rotations:     1,
		ShardEpochs:   []uint64{4, 3},
		EpochLag:      []uint64{0, 1},
		Batches:       3,
		BatchedOps:    4,
		ShardStates:   []int32{0, 2},
		ShardRetries:  []uint64{0, 7},
		Failovers:     1,
	}
	var b strings.Builder
	WriteClusterMetrics(&b, req, cl)
	const want = `# HELP cloakd_requests_total Requests handled, by protocol operation.
# TYPE cloakd_requests_total counter
cloakd_requests_total{op="cloak"} 1
cloakd_requests_total{op="upload"} 2
# HELP cloakd_request_errors_total Requests answered with an error, by protocol operation.
# TYPE cloakd_request_errors_total counter
cloakd_request_errors_total{op="cloak"} 0
cloakd_request_errors_total{op="upload"} 0
# HELP cloakd_request_latency_seconds Request handling latency across all operations.
# TYPE cloakd_request_latency_seconds histogram
cloakd_request_latency_seconds_bucket{le="2e-09"} 0
cloakd_request_latency_seconds_bucket{le="4e-09"} 0
cloakd_request_latency_seconds_bucket{le="8e-09"} 3
cloakd_request_latency_seconds_bucket{le="+Inf"} 3
cloakd_request_latency_seconds_sum 2.4e-08
cloakd_request_latency_seconds_count 3
# HELP cloakd_cluster_shards Shards this coordinator routes to.
# TYPE cloakd_cluster_shards gauge
cloakd_cluster_shards 2
# HELP cloakd_cluster_routed_ops_total Operations forwarded to shards, by operation.
# TYPE cloakd_cluster_routed_ops_total counter
cloakd_cluster_routed_ops_total{op="cloak"} 1
cloakd_cluster_routed_ops_total{op="upload"} 4
# HELP cloakd_cluster_border_replays_total Users re-homed to another shard at a rotation, fail-over re-homes included.
# TYPE cloakd_cluster_border_replays_total counter
cloakd_cluster_border_replays_total 2
# HELP cloakd_cluster_rotations_total Completed cluster-wide rotations.
# TYPE cloakd_cluster_rotations_total counter
cloakd_cluster_rotations_total 1
# HELP cloakd_cluster_shard_epoch Last observed published epoch, per shard.
# TYPE cloakd_cluster_shard_epoch gauge
cloakd_cluster_shard_epoch{shard="0"} 4
cloakd_cluster_shard_epoch{shard="1"} 3
# HELP cloakd_cluster_shard_epoch_lag Distance from the freshest shard's epoch, per shard.
# TYPE cloakd_cluster_shard_epoch_lag gauge
cloakd_cluster_shard_epoch_lag{shard="0"} 0
cloakd_cluster_shard_epoch_lag{shard="1"} 1
# HELP cloakd_cluster_upload_batches_total upload_batch round trips sent to shards by the ordered senders.
# TYPE cloakd_cluster_upload_batches_total counter
cloakd_cluster_upload_batches_total 3
# HELP cloakd_cluster_upload_batched_ops_total Individual uploads carried inside those batches.
# TYPE cloakd_cluster_upload_batched_ops_total counter
cloakd_cluster_upload_batched_ops_total 4
# HELP cloakd_cluster_shard_state Health state per shard: 0 up, 1 failing, 2 dead.
# TYPE cloakd_cluster_shard_state gauge
cloakd_cluster_shard_state{shard="0"} 0
cloakd_cluster_shard_state{shard="1"} 2
# HELP cloakd_cluster_shard_retries_total Forward attempts retried after a transport failure, per shard.
# TYPE cloakd_cluster_shard_retries_total counter
cloakd_cluster_shard_retries_total{shard="0"} 0
cloakd_cluster_shard_retries_total{shard="1"} 7
# HELP cloakd_cluster_failovers_total Shards declared dead and failed over to survivors.
# TYPE cloakd_cluster_failovers_total counter
cloakd_cluster_failovers_total 1
`
	if got := b.String(); got != want {
		t.Errorf("WriteClusterMetrics drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
