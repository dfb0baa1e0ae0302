package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonexposure/internal/metrics"
)

// flakyListener returns errors from Accept until it is told to stop; it
// counts Accept calls so tests can detect busy-spinning.
type flakyListener struct {
	accepts atomic.Int64
	err     error

	mu     sync.Mutex
	closed bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, net.ErrClosed
	}
	return nil, l.err
}

func (l *flakyListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

func (l *flakyListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestAcceptLoopBacksOffOnPersistentError is the regression test for the
// busy-spin bug: a listener that fails every Accept (as EMFILE would)
// must be retried with exponential backoff, not in a hot loop.
func TestAcceptLoopBacksOffOnPersistentError(t *testing.T) {
	fake := &flakyListener{err: errors.New("accept tcp: too many open files")}
	acc := Serve(context.Background(), fake, idleTimeout, metrics.NewRequestMetrics(), pong)

	const window = 300 * time.Millisecond
	time.Sleep(window)
	if err := acc.Close(); err != nil {
		t.Fatal(err)
	}
	// Backoff 5ms,10,20,40,80,160,... gives ~7 attempts in 300ms. The
	// pre-fix loop spun millions of times; leave generous slack.
	if n := fake.accepts.Load(); n > 30 {
		t.Errorf("accept loop ran %d times in %v: not backing off", n, window)
	} else if n < 2 {
		t.Errorf("accept loop ran only %d times: not retrying", n)
	}
}

// sequencedListener serves a scripted sequence of Accept results, then
// blocks until closed.
type sequencedListener struct {
	mu      sync.Mutex
	conns   []net.Conn
	errs    []error
	step    int
	closed  chan struct{}
	closeMu sync.Once
}

func newSequencedListener(steps ...any) *sequencedListener {
	l := &sequencedListener{closed: make(chan struct{})}
	for _, s := range steps {
		switch v := s.(type) {
		case net.Conn:
			l.conns = append(l.conns, v)
			l.errs = append(l.errs, nil)
		case error:
			l.conns = append(l.conns, nil)
			l.errs = append(l.errs, v)
		}
	}
	return l
}

func (l *sequencedListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.step < len(l.conns) {
		i := l.step
		l.step++
		l.mu.Unlock()
		return l.conns[i], l.errs[i]
	}
	l.mu.Unlock()
	<-l.closed
	return nil, net.ErrClosed
}

func (l *sequencedListener) Close() error {
	l.closeMu.Do(func() { close(l.closed) })
	return nil
}

func (l *sequencedListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// pong answers every request with a bare ok envelope.
func pong(context.Context, Request) Envelope { return Envelope{V: ProtocolVersion, OK: true} }

// TestAcceptLoopRecoversAfterErrors verifies a failed Accept does not
// kill the shared accept loop, with a shard's idle deadline and with
// the coordinator's none: a connection arriving after one failed Accept
// (and after a burst of them) is still served.
func TestAcceptLoopRecoversAfterErrors(t *testing.T) {
	tmpErr := errors.New("transient accept failure")
	for _, tc := range []struct {
		name string
		idle time.Duration
		errs int
	}{
		{"shard idle, one failure", idleTimeout, 1},
		{"coordinator no idle, one failure", 0, 1},
		{"shard idle, failure burst", idleTimeout, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			var steps []any
			for i := 0; i < tc.errs; i++ {
				steps = append(steps, tmpErr)
			}
			fake := newSequencedListener(append(steps, server)...)
			acc := Serve(context.Background(), fake, tc.idle, metrics.NewRequestMetrics(), pong)

			// The served connection answers a ping.
			if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write([]byte(`{"v":1,"op":"ping"}` + "\n")); err != nil {
				t.Fatalf("write to served conn: %v", err)
			}
			buf := make([]byte, 256)
			n, err := client.Read(buf)
			if err != nil || n == 0 {
				t.Fatalf("read from served conn: n=%d err=%v", n, err)
			}
			if err := acc.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServerCloseIdempotent is the regression test for the double-Close
// panic: Close must be safe to call any number of times, concurrently,
// and keep returning the first result.
func TestServerCloseIdempotent(t *testing.T) {
	srv, err := New(WithNumUsers(10), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(context.Background(), "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	first := srv.Close()
	if second := srv.Close(); second != first {
		t.Errorf("second Close = %v, want the first result %v", second, first)
	}

	// Concurrent double close on a fresh server (deferred Close paths race
	// with explicit shutdown in practice).
	srv2, err := New(WithNumUsers(10), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Listen(context.Background(), "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv2.Close()
		}()
	}
	wg.Wait()
}

// TestServerCloseDuringActiveConnection closes the server while a client
// mid-conversation still holds its connection open.
func TestServerCloseDuringActiveConnection(t *testing.T) {
	srv, err := New(WithNumUsers(10), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- srv.Close() }()
	go func() { done <- srv.Close() }() // double close racing the first
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung with an active connection")
		}
	}
	// The dropped connection surfaces as an error on the next round trip.
	if err := c.Ping(); err == nil {
		t.Error("ping after server close should fail")
	}
}

func TestHandleRecordsMetrics(t *testing.T) {
	srv, err := New(WithNumUsers(10), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv.HandleEnvelope(ctx, Request{V: ProtocolVersion, Op: OpPing})
	srv.HandleEnvelope(ctx, Request{V: ProtocolVersion, Op: OpUpload, User: 99}) // out of range: an error
	env := srv.HandleEnvelope(ctx, Request{V: ProtocolVersion, Op: OpStats})
	if !env.OK || env.Stats == nil {
		t.Fatalf("stats: %+v", env)
	}
	stats := env.Stats
	if stats.Requests != 2 {
		t.Errorf("Requests = %d, want 2 (ping + failed upload; stats observes itself after)", stats.Requests)
	}
	if stats.ReqErrors != 1 {
		t.Errorf("ReqErrors = %d, want 1", stats.ReqErrors)
	}
	if stats.OpCounts["ping"] != 1 || stats.OpCounts["upload"] != 1 {
		t.Errorf("OpCounts = %v", stats.OpCounts)
	}
	if stats.LatP50us <= 0 || stats.LatP99us < stats.LatP50us {
		t.Errorf("latency percentiles: p50=%v p99=%v", stats.LatP50us, stats.LatP99us)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Total != 3 { // the stats request is counted once it finishes
		t.Errorf("snapshot total = %d, want 3", snap.Total)
	}
}

// A malformed line must produce an error envelope on the same
// connection — and the connection must survive to serve the next
// well-formed request.
func TestMalformedLineGetsErrorResponseKeepsConnection(t *testing.T) {
	srv, err := New(WithNumUsers(10), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)

	send := func(line string) Envelope {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
		raw, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read response to %q: %v", line, err)
		}
		var env Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
		if env.V != ProtocolVersion {
			t.Fatalf("response to %q = %s, want a v%d envelope", line, raw, ProtocolVersion)
		}
		return env
	}

	if resp := send(`this is not json`); resp.OK || resp.Error == "" {
		t.Fatalf("malformed line: got %+v, want error response", resp)
	}
	if resp := send(`{"op":"ping"}{"op":"stats"}`); resp.OK || resp.Error == "" {
		t.Fatalf("two values on one line: got %+v, want error response", resp)
	}
	// The connection is still alive and serves real requests.
	if resp := send(`{"v":1,"op":"ping"}`); !resp.OK {
		t.Fatalf("ping after malformed lines: %+v", resp)
	}
	// Malformed traffic is visible in the metrics.
	snap := srv.Metrics().Snapshot()
	found := false
	for _, op := range snap.Ops {
		if op.Op == "malformed" && op.Count >= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("malformed requests not counted in metrics: %+v", snap.Ops)
	}
}
