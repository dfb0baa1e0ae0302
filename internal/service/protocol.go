// Package service exposes the centralized anonymizer (Fig. 3, path ¬) as
// a real network service: devices upload their proximity rankings over
// TCP, and cloaking requests are answered with k-anonymous clusters. The
// wire protocol is line-delimited JSON — one request object per line, one
// response object per line — so it is trivially scriptable and
// inspectable. Every request carries "v":1 and every reply is a tagged
// Envelope with at most one per-operation payload object (see
// PROTOCOL.md); a line without the version gets an error envelope.
//
// Privacy note: exactly like the paper's anonymizer, the server only ever
// sees *proximity ranks*, never coordinates. Phase 2 (secure bounding)
// still runs peer-to-peer among the cluster members.
package service

import "nonexposure/internal/epoch"

// Op names the request operations.
type Op string

// The protocol operations.
const (
	// OpUpload submits one user's ranked peer list. Uploads are accepted
	// at any time; after the first epoch they become next-epoch input.
	OpUpload Op = "upload"
	// OpFreeze forces an epoch rotation and waits for it to publish: a
	// synchronous rotate. With nothing new to build it waits for the
	// builds already queued and answers with the serving epoch, flagged
	// unchanged.
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
	// OpUploadBatch submits several uploads in one request. Entries
	// apply strictly in array order and stop at the first failure, so a
	// batch is behaviorally identical to the same sequence of single
	// uploads on one connection.
	OpUploadBatch Op = "upload_batch"
)

// PeerRank is one entry of a device's proximity measurement: the peer's
// id and its RSS rank (1 = strongest signal). It is the epoch pipeline's
// RankedPeer under its wire-protocol name.
type PeerRank = epoch.RankedPeer

// Request is one protocol request. V is the protocol version and must be
// at least ProtocolVersion; servers answer a request without it with an
// error envelope. Fields are used per Op: Upload: User + Peers +
// optional Profile; UploadBatch: Uploads; Cloak: User;
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

// MaxLineBytes caps one protocol line. A single upload for the largest
// supported population fits comfortably; anything longer is a protocol
// violation, not a request.
const MaxLineBytes = 1 << 20
