// Package service exposes the centralized anonymizer (Fig. 3, path ¬) as
// a real network service: devices upload their proximity rankings over
// TCP, and cloaking requests are answered with k-anonymous clusters. The
// wire protocol is line-delimited JSON — one request object per line, one
// response object per line — so it is trivially scriptable and
// inspectable. Two response formats coexist (see PROTOCOL.md): the
// legacy v0 flat Response, and the v1 tagged Envelope with per-operation
// payload objects, selected per request by the "v" field.
//
// Privacy note: exactly like the paper's anonymizer, the server only ever
// sees *proximity ranks*, never coordinates. Phase 2 (secure bounding)
// still runs peer-to-peer among the cluster members.
package service

import (
	"nonexposure/internal/epoch"
	"nonexposure/internal/wpg"
)

// Op names the request operations.
type Op string

// The protocol operations.
const (
	// OpUpload submits one user's ranked peer list. Uploads are accepted
	// at any time; after the first epoch they become next-epoch input.
	OpUpload Op = "upload"
	// OpFreeze forces an epoch rotation and waits for it to publish.
	// Retained for v0 compatibility — it is a synchronous rotate.
	OpFreeze Op = "freeze"
	// OpCloak asks for the k-anonymity cluster of a user.
	OpCloak Op = "cloak"
	// OpStats reports server state.
	OpStats Op = "stats"
	// OpPing is a liveness check.
	OpPing Op = "ping"
	// OpRotate forces an epoch rotation without waiting for the build.
	OpRotate Op = "rotate"
	// OpEpoch reports the re-clustering pipeline state.
	OpEpoch Op = "epoch"
	// OpUploadBatch submits several uploads in one request (v1 only).
	// Entries apply strictly in array order and stop at the first
	// failure, so a batch is behaviorally identical to the same sequence
	// of single uploads on one connection.
	OpUploadBatch Op = "upload_batch"
)

// PeerRank is one entry of a device's proximity measurement: the peer's
// id and its RSS rank (1 = strongest signal). It is the epoch pipeline's
// RankedPeer under its wire-protocol name.
type PeerRank = epoch.RankedPeer

// Request is one protocol request. V selects the response format (0 =
// legacy flat Response, 1 = tagged Envelope). Fields are used per Op:
// Upload: User + Peers + optional Profile (v1 only — v0 predates
// profiles and ignores the field); Cloak: User;
// Freeze/Rotate/Epoch/Stats/Ping: none.
type Request struct {
	V     int        `json:"v,omitempty"`
	Op    Op         `json:"op"`
	User  int32      `json:"user,omitempty"`
	Peers []PeerRank `json:"peers,omitempty"`
	// Profile carries the uploading user's personalized privacy demands.
	// Sticky per user with last-write-wins: omitting the object keeps any
	// stored profile untouched, an explicit zero object ("profile":{})
	// reverts a previously uploaded profile to the service defaults.
	Profile *ProfileSpec `json:"profile,omitempty"`
	// Uploads carries an OpUploadBatch request's entries, applied in
	// array order.
	Uploads []UploadEntry `json:"uploads,omitempty"`
}

// UploadEntry is one upload inside an OpUploadBatch request. Each entry
// carries exactly what a single upload request would: the user, the
// ranked peer list, and the optional profile with the same sticky
// semantics (nil keeps any stored profile, an explicit zero object
// reverts to the service defaults).
type UploadEntry struct {
	User    int32        `json:"user"`
	Peers   []PeerRank   `json:"peers,omitempty"`
	Profile *ProfileSpec `json:"profile,omitempty"`
}

// Response is the legacy (v0) flat protocol response. Error is empty on
// success.
//
// Known v0 wart, fixed in v1: omitempty makes semantically meaningful
// zeros indistinguishable from absence — a cloak served from cache
// (Cost 0) and an unfrozen server (Frozen false) simply drop the field.
// The v1 Envelope payloads carry these fields explicitly; new clients
// should send "v":1.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// Cloak results.
	Cluster []int32 `json:"cluster,omitempty"`
	Cost    int     `json:"cost,omitempty"`

	// Epoch of the serving generation (cloak/rotate/epoch results).
	Epoch uint64 `json:"epoch,omitempty"`

	// Stats results.
	Users     int  `json:"users,omitempty"`
	Uploads   int  `json:"uploads,omitempty"`
	Frozen    bool `json:"frozen,omitempty"`
	Clusters  int  `json:"clusters,omitempty"`
	EdgeCount int  `json:"edges,omitempty"`

	// Request-metrics results (OpStats): totals across all operations and
	// aggregate latency percentiles in microseconds.
	Requests  uint64            `json:"requests,omitempty"`
	ReqErrors uint64            `json:"req_errors,omitempty"`
	LatP50us  float64           `json:"lat_p50_us,omitempty"`
	LatP95us  float64           `json:"lat_p95_us,omitempty"`
	LatP99us  float64           `json:"lat_p99_us,omitempty"`
	OpCounts  map[string]uint64 `json:"op_counts,omitempty"`
}

// MaxLineBytes caps one protocol line. A single upload for the largest
// supported population fits comfortably; anything longer is a protocol
// violation, not a request.
const MaxLineBytes = 1 << 20

// buildGraph assembles the WPG from per-user rank uploads. Kept as the
// package-local name for the reconstruction, now shared with the epoch
// pipeline.
func buildGraph(n int, uploads map[int32][]PeerRank) (*wpg.Graph, error) {
	return epoch.BuildGraph(n, uploads)
}
