package service

import (
	"time"

	"nonexposure/internal/core"
	"nonexposure/internal/epoch"
	"nonexposure/internal/metrics"
)

// ProtocolVersion is the protocol version the server speaks. Every
// request must carry "v":1 (a higher version is served as 1); a request
// without it, like a malformed line, is answered with an error
// Envelope.
const ProtocolVersion = 1

// Envelope is the protocol response: a version tag, the outcome, and at
// most one per-operation payload object. Each payload serializes its
// semantically meaningful zeros ("cost":0, "frozen":false) explicitly.
type Envelope struct {
	V     int    `json:"v"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Cloak *CloakPayload `json:"cloak,omitempty"`
	Stats *StatsPayload `json:"stats,omitempty"`
	Epoch *EpochPayload `json:"epoch,omitempty"`
	Batch *BatchPayload `json:"batch,omitempty"`
}

// BatchPayload answers OpUploadBatch. Entries apply strictly in request
// order and stop at the first failure, so on an error envelope Accepted
// doubles as the index of the entry that was rejected: entries
// [0, Accepted) are durably applied, entry Accepted failed, and
// everything after it was not attempted.
type BatchPayload struct {
	Accepted int `json:"accepted"`
}

// ProfileSpec is the optional "profile" object a v1 upload may carry:
// the user's personalized privacy demands. Absent fields (and an absent
// object) mean the service defaults; sending an explicit zero object
// reverts a previously uploaded profile to the defaults. Durations ride
// the wire as integer milliseconds.
type ProfileSpec struct {
	// K is the user's personal anonymity floor; the effective level is
	// max(service k, K), so profiles strengthen, never weaken.
	K int32 `json:"k,omitempty"`
	// MaxArea is the largest cloak area the user finds useful (0 =
	// unbounded); exceeding it marks cloak responses degraded.
	MaxArea float64 `json:"max_area,omitempty"`
	// MaxStalenessMs bounds how long this user's uploads may wait
	// without a rebuild (0 = the service-wide policy).
	MaxStalenessMs int64 `json:"max_staleness_ms,omitempty"`
}

// Core converts the wire profile to the pipeline's pointer semantics:
// nil for an absent object (keep any stored profile untouched), the
// explicit zero &core.Profile{} for the empty object (revert to the
// service defaults).
func (p *ProfileSpec) Core() *core.Profile {
	if p == nil {
		return nil
	}
	return &core.Profile{
		K:            p.K,
		MaxArea:      p.MaxArea,
		MaxStaleness: time.Duration(p.MaxStalenessMs) * time.Millisecond,
	}
}

// CloakPayload answers OpCloak. Cost and Epoch are always present: a
// zero cost is a real answer (served from the generation cache), not an
// absent field.
type CloakPayload struct {
	Cluster []int32 `json:"cluster"`
	Cost    int     `json:"cost"`
	Epoch   uint64  `json:"epoch"`
	// EffectiveK is the anonymity level the cluster actually satisfies:
	// the service-wide k unless some member's profile demanded more.
	EffectiveK int `json:"effective_k"`
	// Degraded reports that the requesting user's own MaxArea bound was
	// exceeded — the cluster is still a valid anonymity set, it is just
	// larger than the user finds useful.
	Degraded bool `json:"degraded,omitempty"`
}

// EpochPayload answers OpEpoch, OpRotate and OpFreeze: the state of the
// live re-clustering pipeline. For OpRotate, Epoch is the newly assigned
// generation number (its build completes in the background); for
// OpFreeze, the generation the freeze published.
type EpochPayload struct {
	Epoch     uint64 `json:"epoch"`
	Published bool   `json:"published"`
	// Unchanged reports a shard's rotate or freeze that found no new
	// uploads: nothing was triggered, and Epoch is the serving
	// generation (for a freeze, read once the builds queued before it
	// have finished). A coordinator's rotation always advances and never
	// sets it.
	Unchanged bool   `json:"unchanged,omitempty"`
	Pending   int    `json:"pending"`
	Builds    uint64 `json:"builds"`
	Swaps     uint64 `json:"swaps"`

	UploadsSeen  uint64 `json:"uploads_seen"`
	SinceTrigger int    `json:"since_trigger"`
	Changed      int    `json:"changed"`
	Policy       string `json:"policy"`

	Edges    int `json:"edges"`
	Clusters int `json:"clusters"`
	Skipped  int `json:"skipped"`

	// ShardsRebuilt/ShardsTotal are the serving generation's incremental
	// rebuild accounting: how many of the WPG's connected components
	// re-ran clustering vs. were spliced from the previous generation.
	ShardsRebuilt int `json:"shards_rebuilt"`
	ShardsTotal   int `json:"shards_total"`

	// Profiled counts users whose stored privacy profile is non-default;
	// KMax and Degraded are the serving generation's profile accounting
	// (largest effective k any cluster satisfies, and users served with
	// their MaxArea bound exceeded). All omitted while every user runs
	// the default profile.
	Profiled int `json:"profiled,omitempty"`
	KMax     int `json:"k_max,omitempty"`
	Degraded int `json:"degraded,omitempty"`

	LastBuildUs float64 `json:"last_build_us"`
}

// StatsPayload answers OpStats. Frozen is always present: an unfrozen
// server reports "frozen":false.
type StatsPayload struct {
	Users    int    `json:"users"`
	Uploads  int    `json:"uploads"`
	Frozen   bool   `json:"frozen"`
	Epoch    uint64 `json:"epoch"`
	Clusters int    `json:"clusters"`
	Edges    int    `json:"edges"`
	// Profiled counts users whose stored privacy profile is non-default
	// (omitted while every user runs the defaults).
	Profiled int `json:"profiled,omitempty"`

	Requests  uint64            `json:"requests"`
	ReqErrors uint64            `json:"req_errors"`
	LatP50us  float64           `json:"lat_p50_us"`
	LatP95us  float64           `json:"lat_p95_us"`
	LatP99us  float64           `json:"lat_p99_us"`
	OpCounts  map[string]uint64 `json:"op_counts,omitempty"`
}

// errEnvelope wraps an error message in a v1 envelope.
func errEnvelope(msg string) Envelope {
	return Envelope{V: ProtocolVersion, Error: msg}
}

// NewEpochPayload renders a pipeline status in the v1 wire shape. The
// admin /epochz endpoint uses it so HTTP observers and v1 clients see
// the same fields.
func NewEpochPayload(st epoch.Status) *EpochPayload { return epochPayload(st) }

// epochPayload renders a pipeline status.
func epochPayload(st epoch.Status) *EpochPayload {
	return &EpochPayload{
		Epoch:         st.Epoch,
		Published:     st.Published,
		Pending:       st.Pending,
		Builds:        st.Builds,
		Swaps:         st.Swaps,
		UploadsSeen:   st.UploadsSeen,
		SinceTrigger:  st.SinceTrigger,
		Changed:       st.ChangedSinceTrigger,
		Policy:        st.Policy.String(),
		Edges:         st.Edges,
		Clusters:      st.Clusters,
		Skipped:       st.Skipped,
		ShardsRebuilt: st.ShardsRebuilt,
		ShardsTotal:   st.ShardsTotal,
		Profiled:      st.Profiled,
		KMax:          st.KMax,
		Degraded:      st.Degraded,
		LastBuildUs:   float64(st.LastBuildDuration) / float64(time.Microsecond),
	}
}

// statsPayload renders server state plus request metrics.
func statsPayload(st epoch.Status, snap metrics.RequestSnapshot) *StatsPayload {
	p := &StatsPayload{
		Users:     st.Users,
		Uploads:   st.Uploads,
		Frozen:    st.Published,
		Epoch:     st.Epoch,
		Clusters:  st.Clusters,
		Edges:     st.Edges,
		Profiled:  st.Profiled,
		Requests:  snap.Total,
		ReqErrors: snap.Errors,
		LatP50us:  float64(snap.P50) / float64(time.Microsecond),
		LatP95us:  float64(snap.P95) / float64(time.Microsecond),
		LatP99us:  float64(snap.P99) / float64(time.Microsecond),
	}
	if len(snap.Ops) > 0 {
		p.OpCounts = make(map[string]uint64, len(snap.Ops))
		for _, op := range snap.Ops {
			p.OpCounts[op.Op] = op.Count
		}
	}
	return p
}
