package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Client is a device-side connection to the anonymizer service. The
// legacy methods (Upload, Freeze, Cloak, Stats) speak v0; the *V1
// methods and Rotate/EpochStatus speak the v1 envelope protocol. A
// Client runs one round trip at a time.
type Client struct {
	conn      net.Conn
	br        *bufio.Reader
	out       []byte // the request line, reused across round trips
	long      []byte // reply lines longer than br's buffer
	opTimeout time.Duration
}

// DefaultOpTimeout bounds one request/response round trip when Dial is
// given no WithOpTimeout option. A hung or partitioned server then
// surfaces as a timeout error instead of blocking the caller forever.
const DefaultOpTimeout = 5 * time.Second

// DefaultDialTimeout bounds connection establishment.
const DefaultDialTimeout = 5 * time.Second

// DialOption configures a Client at Dial time.
type DialOption func(*dialConfig)

type dialConfig struct {
	dialTimeout time.Duration
	opTimeout   time.Duration
}

// WithOpTimeout bounds each request/response round trip. One absolute
// deadline covers both the request write and the response read. d <= 0
// disables the deadline entirely (the pre-deadline behavior: a silent
// server blocks the caller).
func WithOpTimeout(d time.Duration) DialOption {
	return func(cfg *dialConfig) { cfg.opTimeout = d }
}

// WithDialTimeout bounds connection establishment.
func WithDialTimeout(d time.Duration) DialOption {
	return func(cfg *dialConfig) { cfg.dialTimeout = d }
}

// Dial connects to the anonymizer at addr.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{dialTimeout: DefaultDialTimeout, opTimeout: DefaultOpTimeout}
	for _, opt := range opts {
		opt(&cfg)
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, br: bufio.NewReader(conn), opTimeout: cfg.opTimeout}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// arm sets the absolute I/O deadline for the round trip about to start.
// Setting it per operation (rather than once at Dial) makes the bound
// per-request: a connection that serves many requests never accumulates
// deadline debt, and a long-lived idle connection never expires.
func (c *Client) arm() {
	if c.opTimeout > 0 {
		// SetDeadline only errors on a closed connection; the Encode that
		// follows reports that case with more context.
		_ = c.conn.SetDeadline(time.Now().Add(c.opTimeout))
	}
}

// exchange writes req's line and returns the reply line (valid until
// the next round trip).
func (c *Client) exchange(req *Request) ([]byte, error) {
	c.arm()
	out, err := appendRequest(c.out[:0], req)
	if err != nil {
		return nil, fmt.Errorf("service: send %s: %w", req.Op, err)
	}
	c.out = out
	if _, err := c.conn.Write(out); err != nil {
		return nil, fmt.Errorf("service: send %s: %w", req.Op, err)
	}
	line, err := readLine(c.br, &c.long)
	if err != nil {
		return nil, fmt.Errorf("service: receive %s: %w", req.Op, err)
	}
	return line, nil
}

func (c *Client) roundTrip(req Request) (Response, error) {
	line, err := c.exchange(&req)
	if err != nil {
		return Response{}, err
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, fmt.Errorf("service: receive %s: %w", req.Op, err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("service: %s: %s", req.Op, resp.Error)
	}
	return resp, nil
}

// roundTripV1 sends a version-1 request and decodes the envelope. A
// server answering a malformed line replies in the v0 shape; that still
// decodes here (V stays 0, Error carries the reason).
func (c *Client) roundTripV1(req Request) (Envelope, error) {
	req.V = ProtocolVersion
	line, err := c.exchange(&req)
	if err != nil {
		return Envelope{}, err
	}
	var env Envelope
	if err := decodeEnvelope(line, &env); err != nil {
		return Envelope{}, fmt.Errorf("service: receive %s: %w", req.Op, err)
	}
	if !env.OK {
		return env, fmt.Errorf("service: %s: %s", req.Op, env.Error)
	}
	return env, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(Request{Op: OpPing})
	return err
}

// Upload submits this user's ranked peer list. Uploads are accepted at
// any time; once an epoch has been published they become input to the
// next one.
func (c *Client) Upload(user int32, peers []PeerRank) error {
	_, err := c.roundTrip(Request{Op: OpUpload, User: user, Peers: peers})
	return err
}

// Freeze forces an epoch rotation and waits for it to publish; cloaking
// is available afterwards. Returns the number of mutual edges formed.
func (c *Client) Freeze() (int, error) {
	resp, err := c.roundTrip(Request{Op: OpFreeze})
	if err != nil {
		return 0, err
	}
	return resp.EdgeCount, nil
}

// Cloak requests the k-anonymity cluster for user. cost is the number of
// messages this request caused on the server side (the epoch's upload
// count for the first request served from each generation, zero after).
func (c *Client) Cloak(user int32) (cluster []int32, cost int, err error) {
	resp, err := c.roundTrip(Request{Op: OpCloak, User: user})
	if err != nil {
		return nil, 0, err
	}
	return resp.Cluster, resp.Cost, nil
}

// Stats fetches server state in the legacy flat shape.
func (c *Client) Stats() (Response, error) {
	return c.roundTrip(Request{Op: OpStats})
}

// UploadProfile submits this user's ranked peer list together with a
// personalized privacy profile over the v1 protocol. A zero ProfileSpec
// reverts the user to the service defaults.
func (c *Client) UploadProfile(user int32, peers []PeerRank, prof ProfileSpec) error {
	_, err := c.roundTripV1(Request{Op: OpUpload, User: user, Peers: peers, Profile: &prof})
	return err
}

// UploadBatch submits several uploads in one v1 round trip. Entries
// apply strictly in slice order and stop at the first failure, so the
// batch is behaviorally identical to the same sequence of single
// uploads on this connection — just one round trip instead of many.
// Per-entry profiles keep UploadProfile's sticky pointer semantics: a
// nil Profile leaves any stored profile untouched, an explicit zero
// spec reverts that user to the service defaults.
//
// The returned count is the number of entries durably applied. On an
// application error it is also the index of the rejected entry
// (everything after it was not attempted); on a transport error it is 0
// and the caller cannot know how much of the batch landed.
func (c *Client) UploadBatch(entries []UploadEntry) (int, error) {
	env, err := c.roundTripV1(Request{Op: OpUploadBatch, Uploads: entries})
	if err != nil {
		if env.Batch != nil {
			return env.Batch.Accepted, err
		}
		return 0, err
	}
	if env.Batch == nil {
		return 0, fmt.Errorf("service: upload_batch: v1 response missing payload")
	}
	return env.Batch.Accepted, nil
}

// CloakV1 requests the k-anonymity cluster for user over the v1
// protocol; the payload reports which epoch served the answer, and its
// Cost field is present even when zero.
func (c *Client) CloakV1(user int32) (*CloakPayload, error) {
	env, err := c.roundTripV1(Request{Op: OpCloak, User: user})
	if err != nil {
		return nil, err
	}
	if env.Cloak == nil {
		return nil, fmt.Errorf("service: cloak: v1 response missing payload")
	}
	return env.Cloak, nil
}

// Rotate forces a new epoch without waiting for its build. The returned
// payload's Epoch is the freshly assigned generation number.
func (c *Client) Rotate() (*EpochPayload, error) {
	env, err := c.roundTripV1(Request{Op: OpRotate})
	if err != nil {
		return nil, err
	}
	if env.Epoch == nil {
		return nil, fmt.Errorf("service: rotate: v1 response missing payload")
	}
	return env.Epoch, nil
}

// EpochStatus reports the re-clustering pipeline state.
func (c *Client) EpochStatus() (*EpochPayload, error) {
	env, err := c.roundTripV1(Request{Op: OpEpoch})
	if err != nil {
		return nil, err
	}
	if env.Epoch == nil {
		return nil, fmt.Errorf("service: epoch: v1 response missing payload")
	}
	return env.Epoch, nil
}

// StatsV1 fetches server state in the v1 shape ("frozen" always
// present).
func (c *Client) StatsV1() (*StatsPayload, error) {
	env, err := c.roundTripV1(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if env.Stats == nil {
		return nil, fmt.Errorf("service: stats: v1 response missing payload")
	}
	return env.Stats, nil
}
