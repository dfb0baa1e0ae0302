package service

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// silentListener accepts connections and swallows everything written to
// them without ever answering — the shape of a hung or partitioned
// server.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln
}

// TestClientOpTimeoutAgainstSilentServer pins that a round trip to a
// server that never answers fails with a net.Error timeout instead of
// blocking the caller.
func TestClientOpTimeoutAgainstSilentServer(t *testing.T) {
	ln := silentListener(t)
	c, err := Dial(ln.Addr().String(), WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Ping()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ping against a silent server succeeded; want timeout")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("ping error = %v; want a net.Error timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("ping took %v to fail; deadline did not bound the round trip", elapsed)
	}
}

// TestClientOpTimeoutV1AgainstSilentServer pins the same bound on the
// epoch-status path, which decodes a typed payload after the round trip.
func TestClientOpTimeoutV1AgainstSilentServer(t *testing.T) {
	ln := silentListener(t)
	c, err := Dial(ln.Addr().String(), WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.EpochStatus(); err == nil {
		t.Fatal("v1 round trip against a silent server succeeded; want timeout")
	} else {
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("v1 error = %v; want a net.Error timeout", err)
		}
	}
}

// TestClientDeadlineIsPerOperation pins that the deadline re-arms for
// each round trip: a request issued close to the previous one still gets
// the full budget rather than inheriting a nearly expired deadline.
func TestClientDeadlineIsPerOperation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// Echo server that answers two pings, the second after a delay that
	// would exceed the first operation's leftover budget but not a fresh
	// one.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		for i := 0; i < 2; i++ {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			if i == 1 {
				time.Sleep(150 * time.Millisecond)
			}
			if _, err := conn.Write([]byte("{\"v\":1,\"ok\":true}\n")); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), WithOpTimeout(250*time.Millisecond))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	// Burn most of the first deadline's window, then issue the second
	// request; it only succeeds if arm() granted a fresh budget.
	time.Sleep(150 * time.Millisecond)
	if err := c.Ping(); err != nil {
		t.Fatalf("second ping: %v (deadline not re-armed per operation?)", err)
	}
}

func TestClientZeroOpTimeoutDisablesDeadline(t *testing.T) {
	ln := silentListener(t)
	c, err := Dial(ln.Addr().String(), WithOpTimeout(0))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- c.Ping() }()
	select {
	case err := <-done:
		// Closing the client below unblocks the read; before that, the
		// only way Ping returns is a bug arming a deadline at timeout 0.
		t.Fatalf("ping returned early with %v; want it to block without a deadline", err)
	case <-time.After(300 * time.Millisecond):
	}
	c.Close()
	<-done
}
