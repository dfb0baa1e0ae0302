package service

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Client is a device-side connection to the anonymizer service. Every
// method sends one "v":1 request line and decodes the Envelope it gets
// back. A Client runs one round trip at a time.
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

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// DialOption configures a Client at Dial time.
type DialOption func(*dialConfig)

type dialConfig struct {
	opTimeout time.Duration
}

// WithOpTimeout bounds each request/response round trip. One absolute
// deadline covers both the request write and the response read. d <= 0
// disables the deadline entirely (the pre-deadline behavior: a silent
// server blocks the caller).
func WithOpTimeout(d time.Duration) DialOption {
	return func(cfg *dialConfig) { cfg.opTimeout = d }
}

// Dial connects to the anonymizer at addr.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{opTimeout: DefaultOpTimeout}
	for _, opt := range opts {
		opt(&cfg)
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
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

// roundTrip sends req as a version-1 request and decodes the envelope;
// an envelope with ok false comes back together with its error.
func (c *Client) roundTrip(req Request) (Envelope, error) {
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
// next one. A stored profile is left untouched (see UploadProfile).
func (c *Client) Upload(user int32, peers []PeerRank) error {
	_, err := c.roundTrip(Request{Op: OpUpload, User: user, Peers: peers})
	return err
}

// Freeze forces an epoch rotation and waits for it to publish; cloaking
// is available afterwards. The payload describes the published
// generation (its Edges are the mutual edges formed). With no uploads
// since the last rotation the server builds nothing: it waits for the
// builds already queued and answers with the serving generation, with
// Unchanged set.
func (c *Client) Freeze() (*EpochPayload, error) {
	return c.epochRoundTrip(OpFreeze)
}

// UploadProfile submits this user's ranked peer list together with a
// personalized privacy profile. A zero ProfileSpec reverts the user to
// the service defaults.
func (c *Client) UploadProfile(user int32, peers []PeerRank, prof ProfileSpec) error {
	_, err := c.roundTrip(Request{Op: OpUpload, User: user, Peers: peers, Profile: &prof})
	return err
}

// UploadBatch submits several uploads in one round trip. Entries apply
// strictly in slice order and stop at the first failure, so the batch
// is behaviorally identical to the same sequence of single uploads on
// this connection — just one round trip instead of many.
// Per-entry profiles keep UploadProfile's sticky pointer semantics: a
// nil Profile leaves any stored profile untouched, an explicit zero
// spec reverts that user to the service defaults.
//
// The returned count is the number of entries durably applied. On an
// application error it is also the index of the rejected entry
// (everything after it was not attempted); on a transport error it is 0
// and the caller cannot know how much of the batch landed.
func (c *Client) UploadBatch(entries []UploadEntry) (int, error) {
	env, err := c.roundTrip(Request{Op: OpUploadBatch, Uploads: entries})
	if err != nil {
		if env.Batch != nil {
			return env.Batch.Accepted, err
		}
		return 0, err
	}
	if env.Batch == nil {
		return 0, fmt.Errorf("service: upload_batch: response missing payload")
	}
	return env.Batch.Accepted, nil
}

// CloakV1 requests the k-anonymity cluster for user; the payload
// reports which epoch served the answer and the messages the request
// cost (the epoch's upload count for the first request served from each
// generation, zero after).
func (c *Client) CloakV1(user int32) (*CloakPayload, error) {
	env, err := c.roundTrip(Request{Op: OpCloak, User: user})
	if err != nil {
		return nil, err
	}
	if env.Cloak == nil {
		return nil, fmt.Errorf("service: cloak: response missing payload")
	}
	return env.Cloak, nil
}

// Rotate forces a new epoch without waiting for its build. The returned
// payload's Epoch is the freshly assigned generation number, or, with
// Unchanged set, the serving one when there was nothing new to build.
func (c *Client) Rotate() (*EpochPayload, error) {
	return c.epochRoundTrip(OpRotate)
}

// EpochStatus reports the re-clustering pipeline state.
func (c *Client) EpochStatus() (*EpochPayload, error) {
	return c.epochRoundTrip(OpEpoch)
}

// epochRoundTrip sends op and returns the reply's epoch payload.
func (c *Client) epochRoundTrip(op Op) (*EpochPayload, error) {
	env, err := c.roundTrip(Request{Op: op})
	if err != nil {
		return nil, err
	}
	if env.Epoch == nil {
		return nil, fmt.Errorf("service: %s: response missing payload", op)
	}
	return env.Epoch, nil
}

// StatsV1 fetches server state and request metrics.
func (c *Client) StatsV1() (*StatsPayload, error) {
	env, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if env.Stats == nil {
		return nil, fmt.Errorf("service: stats: response missing payload")
	}
	return env.Stats, nil
}
