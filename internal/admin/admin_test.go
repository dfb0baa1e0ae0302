package admin

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nonexposure/internal/metrics"
	"nonexposure/internal/service"
	"nonexposure/internal/trace"
)

// newTestHandler builds a handler over a small live server: a frozen
// ring population with one cloak served, so every endpoint has real
// data behind it.
func newTestHandler(t *testing.T) (*Handler, *service.Server) {
	t.Helper()
	em := metrics.NewEpochMetrics()
	srv, err := service.New(
		service.WithNumUsers(8),
		service.WithK(2),
		service.WithMetrics(em),
		service.WithTraceRecorder(trace.NewRecorder(16)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	handle := func(req service.Request) service.Envelope {
		req.V = service.ProtocolVersion
		return srv.HandleEnvelope(context.Background(), req)
	}
	for i := int32(0); i < 8; i++ {
		resp := handle(service.Request{Op: service.OpUpload, User: i,
			Peers: []service.PeerRank{
				{Peer: (i + 1) % 8, Rank: 1},
				{Peer: (i + 7) % 8, Rank: 2},
			}})
		if resp.Error != "" {
			t.Fatalf("upload %d: %s", i, resp.Error)
		}
	}
	if resp := handle(service.Request{Op: service.OpFreeze}); resp.Error != "" {
		t.Fatalf("freeze: %s", resp.Error)
	}
	if resp := handle(service.Request{Op: service.OpCloak, User: 3}); resp.Error != "" {
		t.Fatalf("cloak: %s", resp.Error)
	}
	return New(srv), srv
}

func get(t *testing.T, h *Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d, want 200", path, rec.Code)
	}
	return rec
}

func TestHealthz(t *testing.T) {
	h, _ := newTestHandler(t)
	var body struct {
		Status    string `json:"status"`
		Epoch     uint64 `json:"epoch"`
		Published bool   `json:"published"`
		Users     int    `json:"users"`
	}
	if err := json.Unmarshal(get(t, h, "/healthz").Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || !body.Published || body.Users != 8 || body.Epoch == 0 {
		t.Errorf("healthz = %+v, want ok/published/8 users/nonzero epoch", body)
	}
}

// TestEpochzMirrorsV1 pins the PROTOCOL.md promise: /epochz returns the
// exact payload the v1 `epoch` op returns.
func TestEpochzMirrorsV1(t *testing.T) {
	h, srv := newTestHandler(t)
	var fromHTTP service.EpochPayload
	if err := json.Unmarshal(get(t, h, "/epochz").Body.Bytes(), &fromHTTP); err != nil {
		t.Fatal(err)
	}
	env := srv.HandleEnvelope(context.Background(), service.Request{V: 1, Op: service.OpEpoch})
	if env.Error != "" {
		t.Fatalf("v1 epoch: %s", env.Error)
	}
	if fromHTTP != *env.Epoch {
		t.Errorf("/epochz = %+v\nv1 epoch  = %+v", fromHTTP, *env.Epoch)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h, _ := newTestHandler(t)
	rec := get(t, h, "/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`cloakd_requests_total{op="cloak"} 1`,
		`cloakd_requests_total{op="upload"} 8`,
		`cloakd_request_errors_total{op="cloak"} 0`,
		"cloakd_request_latency_seconds_bucket{le=\"+Inf\"} 10",
		"cloakd_epoch_builds_total 1",
		"cloakd_epoch_swaps_total 1",
		"cloakd_epoch_shards_total 1",
		"cloakd_epoch_shards_rebuilt_total 1",
		`cloakd_epoch_build_stage_seconds_count{stage="cluster"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
}

func TestTracezShowsRequestTree(t *testing.T) {
	h, _ := newTestHandler(t)
	body := get(t, h, "/tracez").Body.String()
	for _, want := range []string{"request.cloak", "epoch.cloak", "epoch.build/", "core.cluster"} {
		if !strings.Contains(body, want) {
			t.Errorf("/tracez missing %q\n---\n%s", want, body)
		}
	}
}

func TestPprofIndex(t *testing.T) {
	h, _ := newTestHandler(t)
	if body := get(t, h, "/debug/pprof/").Body.String(); !strings.Contains(body, "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

// TestWriteMetricsGolden pins the full exposition format for fixed
// snapshots, so accidental format drift (which breaks scrapers) is
// caught at test time.
func TestWriteMetricsGolden(t *testing.T) {
	req := metrics.RequestSnapshot{
		Total: 7, Errors: 1,
		Ops: []metrics.OpSnapshot{
			{Op: "cloak", Count: 5, Errors: 1},
			{Op: "ping", Count: 2},
		},
		Hist: histWith(t, map[int]uint64{2: 5, 4: 2}, 64),
	}
	ep := metrics.EpochSnapshot{
		Builds: 3, BuildFails: 1, Swaps: 2, Pending: 1,
		ShardsTotal: 6, ShardsRebuilt: 2,
		Staleness: 1500 * time.Millisecond,
		Profiled:  4, Degraded: 1,
		BuildHist: histWith(t, map[int]uint64{20: 3}, 3*(1<<20)),
		BuildStages: []metrics.StageSnapshot{
			{Stage: "queue", Count: 3, Total: 300 * time.Millisecond},
			{Stage: "cluster", Count: 3, Total: 2 * time.Second},
		},
	}
	var b strings.Builder
	WriteMetrics(&b, req, ep)
	const want = `# HELP cloakd_requests_total Requests handled, by protocol operation.
# TYPE cloakd_requests_total counter
cloakd_requests_total{op="cloak"} 5
cloakd_requests_total{op="ping"} 2
# HELP cloakd_request_errors_total Requests answered with an error, by protocol operation.
# TYPE cloakd_request_errors_total counter
cloakd_request_errors_total{op="cloak"} 1
cloakd_request_errors_total{op="ping"} 0
# HELP cloakd_request_latency_seconds Request handling latency across all operations.
# TYPE cloakd_request_latency_seconds histogram
cloakd_request_latency_seconds_bucket{le="2e-09"} 0
cloakd_request_latency_seconds_bucket{le="4e-09"} 0
cloakd_request_latency_seconds_bucket{le="8e-09"} 5
cloakd_request_latency_seconds_bucket{le="1.6e-08"} 5
cloakd_request_latency_seconds_bucket{le="3.2e-08"} 7
cloakd_request_latency_seconds_bucket{le="+Inf"} 7
cloakd_request_latency_seconds_sum 6.4e-08
cloakd_request_latency_seconds_count 7
# HELP cloakd_epoch_builds_total Completed epoch rebuilds.
# TYPE cloakd_epoch_builds_total counter
cloakd_epoch_builds_total 3
# HELP cloakd_epoch_build_failures_total Epoch rebuilds that failed.
# TYPE cloakd_epoch_build_failures_total counter
cloakd_epoch_build_failures_total 1
# HELP cloakd_epoch_swaps_total Generation pointer swaps (published epochs).
# TYPE cloakd_epoch_swaps_total counter
cloakd_epoch_swaps_total 2
# HELP cloakd_epoch_pending_builds Rebuilds queued or in flight.
# TYPE cloakd_epoch_pending_builds gauge
cloakd_epoch_pending_builds 1
# HELP cloakd_epoch_shards_total WPG connected components (shards) across all successful rebuilds.
# TYPE cloakd_epoch_shards_total counter
cloakd_epoch_shards_total 6
# HELP cloakd_epoch_shards_rebuilt_total Shards that re-ran clustering (the rest were spliced from the previous generation).
# TYPE cloakd_epoch_shards_rebuilt_total counter
cloakd_epoch_shards_rebuilt_total 2
# HELP cloakd_epoch_staleness_seconds Age of the published generation.
# TYPE cloakd_epoch_staleness_seconds gauge
cloakd_epoch_staleness_seconds 1.5
# HELP cloakd_profiled_users Users with a non-default privacy profile in the latest generation's snapshot.
# TYPE cloakd_profiled_users gauge
cloakd_profiled_users 4
# HELP cloakd_degraded_users Users served with their MaxArea bound exceeded in the latest generation.
# TYPE cloakd_degraded_users gauge
cloakd_degraded_users 1
# HELP cloakd_epoch_build_seconds End-to-end epoch rebuild duration.
# TYPE cloakd_epoch_build_seconds histogram
cloakd_epoch_build_seconds_bucket{le="2e-09"} 0
cloakd_epoch_build_seconds_bucket{le="4e-09"} 0
cloakd_epoch_build_seconds_bucket{le="8e-09"} 0
cloakd_epoch_build_seconds_bucket{le="1.6e-08"} 0
cloakd_epoch_build_seconds_bucket{le="3.2e-08"} 0
cloakd_epoch_build_seconds_bucket{le="6.4e-08"} 0
cloakd_epoch_build_seconds_bucket{le="1.28e-07"} 0
cloakd_epoch_build_seconds_bucket{le="2.56e-07"} 0
cloakd_epoch_build_seconds_bucket{le="5.12e-07"} 0
cloakd_epoch_build_seconds_bucket{le="1.024e-06"} 0
cloakd_epoch_build_seconds_bucket{le="2.048e-06"} 0
cloakd_epoch_build_seconds_bucket{le="4.096e-06"} 0
cloakd_epoch_build_seconds_bucket{le="8.192e-06"} 0
cloakd_epoch_build_seconds_bucket{le="1.6384e-05"} 0
cloakd_epoch_build_seconds_bucket{le="3.2768e-05"} 0
cloakd_epoch_build_seconds_bucket{le="6.5536e-05"} 0
cloakd_epoch_build_seconds_bucket{le="0.000131072"} 0
cloakd_epoch_build_seconds_bucket{le="0.000262144"} 0
cloakd_epoch_build_seconds_bucket{le="0.000524288"} 0
cloakd_epoch_build_seconds_bucket{le="0.001048576"} 0
cloakd_epoch_build_seconds_bucket{le="0.002097152"} 3
cloakd_epoch_build_seconds_bucket{le="+Inf"} 3
cloakd_epoch_build_seconds_sum 0.003145728
cloakd_epoch_build_seconds_count 3
# HELP cloakd_epoch_build_stage_seconds_sum Total time spent per rebuild stage.
# TYPE cloakd_epoch_build_stage_seconds_sum counter
cloakd_epoch_build_stage_seconds_sum{stage="queue"} 0.3
cloakd_epoch_build_stage_seconds_sum{stage="cluster"} 2
# HELP cloakd_epoch_build_stage_seconds_count Observations per rebuild stage.
# TYPE cloakd_epoch_build_stage_seconds_count counter
cloakd_epoch_build_stage_seconds_count{stage="queue"} 3
cloakd_epoch_build_stage_seconds_count{stage="cluster"} 3
`
	if got := b.String(); got != want {
		t.Errorf("WriteMetrics drift.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWriteMetricsEmpty renders zero-state snapshots without panicking
// and still emits the histogram totals a scraper needs.
func TestWriteMetricsEmpty(t *testing.T) {
	var b strings.Builder
	WriteMetrics(&b, metrics.RequestSnapshot{}, metrics.EpochSnapshot{})
	for _, want := range []string{
		"cloakd_request_latency_seconds_bucket{le=\"+Inf\"} 0",
		"cloakd_request_latency_seconds_count 0",
		"cloakd_epoch_builds_total 0",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("empty exposition missing %q", want)
		}
	}
}

// histWith builds a HistogramSnapshot with the given bucket counts and
// sum in nanoseconds.
func histWith(t *testing.T, counts map[int]uint64, sumNs int64) metrics.HistogramSnapshot {
	t.Helper()
	h := metrics.HistogramSnapshot{Counts: make([]uint64, metrics.NumBuckets), SumNs: sumNs}
	for i, c := range counts {
		h.Counts[i] = c
		h.Total += c
	}
	return h
}
