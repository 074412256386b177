package remote

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/vec"
)

// fastReconnectRetry keeps the chaos tests deterministic and quick: no
// jitter, millisecond backoff, enough attempts to ride out one injected
// fault plus the dial behind it.
var fastReconnectRetry = pipeline.RetryPolicy{
	MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: -1,
}

// TestReconnectBitIdenticalResume is the tentpole chaos test: a
// resilient subscription whose connection is severed at a deterministic
// byte offset mid-stream must deliver every frame exactly once, in
// order, each payload bit-identical to the server's stored encoding —
// the resumed stream indistinguishable from an uninterrupted one.
//
// The fault fires on the first connection's write side at offset 100:
// past the 8-byte hello, the 17-byte subscribe and the first fetches,
// landing inside a mid-stream GetDelta request. The dialed client must
// classify the loss transient and redial, and the subscription
// re-subscribe and catch up from the last held frame over GetDelta.
func TestReconnectBitIdenticalResume(t *testing.T) {
	const nFrames = 6
	reps := correlatedReps(t, nFrames)
	ring, err := NewLiveRing(16)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if err := ring.Publish(i, rep); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServiceWith("127.0.0.1:0", ring, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var dials atomic.Int32
	rc, err := DialWith(srv.Addr(), ClientOptions{
		// Heartbeats off so the byte stream is exactly the verbs below
		// and the fault offset is deterministic.
		HeartbeatInterval: -1,
		Retry:             fastReconnectRetry,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				// First connection only: sever the write side after 100
				// bytes — inside the GetDelta request for frame 3.
				return newFaultConn(conn, faultPoint{}, faultPoint{kind: faultReset, offset: 100}), nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	sub, err := rc.SubscribeResume(-1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	got := make([]ResumedFrame, 0, nFrames)
	timeout := time.After(30 * time.Second)
	for len(got) < nFrames {
		select {
		case f, ok := <-sub.Frames:
			if !ok {
				t.Fatalf("feed closed after %d frames: %v", len(got), sub.Err())
			}
			got = append(got, f)
		case <-timeout:
			t.Fatalf("timed out after %d frames", len(got))
		}
	}

	for i, f := range got {
		if f.Index != i {
			t.Fatalf("frame %d delivered at position %d — order or duplication broken", f.Index, i)
		}
		want, err := ring.EncodedFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Payload, want) {
			t.Errorf("frame %d payload differs from the store's encoding (%d vs %d bytes)", i, len(f.Payload), len(want))
		}
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("dials = %d, want 2 (one faulted, one resumed)", n)
	}
	if n := rc.Redials(); n != 1 {
		t.Errorf("Redials() = %d, want 1", n)
	}
	if n := sub.Skipped(); n != 0 {
		t.Errorf("Skipped() = %d, want 0 — the gapless guarantee broke", n)
	}
}

// TestReconnectHeartbeatDetectsDeadServer: a server that completes the
// handshake and then never answers anything must be declared dead by
// the client's heartbeat watchdog — the connection fails with an error
// wrapping ErrClientClosed instead of hanging forever. The watchdog is
// a property of one connection, so the client is one that never
// redials.
func TestReconnectHeartbeatDetectsDeadServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if err := serverHello(conn); err != nil {
					return
				}
				io.Copy(io.Discard, conn) // swallow everything, answer nothing
			}(conn)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientConn(conn, ClientOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		IdleTimeout:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	select {
	case <-cli.link.Load().done:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat watchdog never declared the silent peer dead")
	}
	if _, err := cli.List(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("List after watchdog kill = %v, want ErrClientClosed in the chain", err)
	}
}

// TestServiceIdleTimeoutReapsDeadPeer is the server half of liveness:
// a client that never sends anything (heartbeats disabled) must be
// reaped by the service's idle deadline, freeing its session slot.
func TestServiceIdleTimeoutReapsDeadPeer(t *testing.T) {
	store, err := NewMemStore(testReps(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServiceWith("127.0.0.1:0", store, ServiceOptions{IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialWith(srv.Addr(), ClientOptions{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.List(); err != nil {
		t.Fatal(err)
	}
	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d after dial, want 1", n)
	}

	// The client goes silent; the server must hang up within the idle
	// deadline, which the client observes as a dead connection.
	select {
	case <-cli.link.Load().done:
	case <-time.After(5 * time.Second):
		t.Fatal("idle server never hung up on the silent client")
	}
	waitFor(t, "session reaped", func() bool { return srv.SessionCount() == 0 })
}

// TestAdmissionRefusedRetriesToSuccess: a MaxSessions-refused client is
// told to retry (ErrCodeUnavailable), and a dialed client does — the
// call succeeds as soon as an admitted session departs, without the
// caller seeing the refusals.
func TestAdmissionRefusedRetriesToSuccess(t *testing.T) {
	store, err := NewMemStore(testReps(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServiceWith("127.0.0.1:0", store, ServiceOptions{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	holder := dial(t, srv.Addr())
	if _, err := holder.List(); err != nil {
		t.Fatal(err) // the slot is definitely taken now
	}

	rc, err := DialWith(srv.Addr(), ClientOptions{
		HeartbeatInterval: -1,
		Retry: pipeline.RetryPolicy{
			MaxAttempts: 100, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Jitter: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	result := make(chan error, 1)
	go func() {
		_, err := rc.List()
		result <- err
	}()

	// Let the refused client burn a few retries, then free the slot.
	time.Sleep(100 * time.Millisecond)
	holder.Close()

	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("List through admission pressure failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("List never completed after the slot freed")
	}
	if n := srv.Stats().SessionsRefused; n == 0 {
		t.Error("SessionsRefused = 0 — the test never actually hit admission control")
	}
}

// TestClientClosedTyped pins the fail-fast contract: every call after
// Close — or after the server hangs up on a client that never redials —
// fails with an error chain carrying ErrClientClosed, promptly, whether
// the close was local or remote.
func TestClientClosedTyped(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))

	local, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	local.Close()
	start := time.Now()
	if _, err := local.List(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("List after Close = %v, want ErrClientClosed in the chain", err)
	}
	if _, err := local.Subscribe(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Subscribe after Close = %v, want ErrClientClosed in the chain", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("closed-client calls took %v, want fail-fast", took)
	}

	// Remote close: the server tears the connection down.
	remote := dial(t, srv.Addr())
	if _, err := remote.List(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case <-remote.link.Load().done:
	case <-time.After(5 * time.Second):
		t.Fatal("client never noticed the server closing")
	}
	if _, err := remote.List(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("List after server close = %v, want ErrClientClosed in the chain", err)
	}
}

// TestSubscriptionChurnNoLeaks churns 100 subscribe/unsubscribe and
// reconnect-resume cycles and asserts both leak baselines: the server's
// session table returns to empty and the process goroutine count
// returns to its pre-churn level — no stranded drains, watchdogs,
// pumps or heartbeat loops.
func TestSubscriptionChurnNoLeaks(t *testing.T) {
	reps := testReps(t, 2)
	ring, err := NewLiveRing(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if err := ring.Publish(i, rep); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServiceWith("127.0.0.1:0", ring, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if i%4 == 3 {
			// Reconnect cycle: resume-from-the-end so the pump registers
			// without needing a consumer.
			rc, err := DialWith(srv.Addr(), ClientOptions{
				HeartbeatInterval: -1,
				Retry:             fastReconnectRetry,
			})
			if err != nil {
				t.Fatal(err)
			}
			sub, err := rc.SubscribeResume(len(reps) - 1)
			if err != nil {
				t.Fatal(err)
			}
			sub.Close()
			rc.Close()
			continue
		}
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		sub, err := cli.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		<-sub.Updates
		sub.Close()
		cli.Close()
	}

	waitFor(t, "session table drained", func() bool { return srv.SessionCount() == 0 })
	fleetNoLeaks(t, before)
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// redialingClient dials addr with a client whose first connection
// resets eight bytes into the first reply (past the 12-byte hello),
// and counts the dials.
func redialingClient(t *testing.T, addr string) (*Client, *atomic.Int32) {
	t.Helper()
	dials := new(atomic.Int32)
	cli, err := DialWith(addr, ClientOptions{
		HeartbeatInterval: -1,
		Retry:             fastReconnectRetry,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				return newFaultConn(conn, faultPoint{kind: faultReset, offset: 20}, faultPoint{}), nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, dials
}

// TestDialedClientRedialsEveryVerb: the redial sits under the round trip,
// so every verb of a dialed client survives losing its connection in the
// middle of a reply — each call below succeeds over exactly one redial,
// with a result bit-identical to the same call on an undisturbed client.
func TestDialedClientRedialsEveryVerb(t *testing.T) {
	reps := correlatedReps(t, 2)
	srv, store := serveMem(t, reps)
	w := startWorker(t)
	undisturbed := map[string]*Client{srv.Addr(): dial(t, srv.Addr()), w.Addr(): dial(t, w.Addr())}
	base, err := store.EncodedFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.EncodedFrame(1)
	if err != nil {
		t.Fatal(err)
	}
	params := RenderParams{Frame: 1, Width: 24, Height: 24, ViewDir: vec.New(0.4, 0.3, 1)}
	tcfg, ecfg := extractFixture()
	req := appendExtractRequest(nil, testPoints(1, 500), tcfg, ecfg)

	for _, c := range []struct {
		verb string
		addr string
		call func(cli *Client) (any, error) // the result as comparable values
	}{
		{"List", srv.Addr(), func(cli *Client) (any, error) { return cli.List() }},
		{"FetchFrame", srv.Addr(), func(cli *Client) (any, error) {
			rep, n, _, err := cli.FetchFrame(1)
			if err != nil {
				return nil, err
			}
			return []any{rep.AppendBinary(nil), n}, nil
		}},
		{"FetchFrameDelta", srv.Addr(), func(cli *Client) (any, error) {
			rep, enc, n, _, err := cli.FetchFrameDelta(1, 0, base)
			if err != nil {
				return nil, err
			}
			return []any{rep.AppendBinary(nil), enc, n}, nil
		}},
		{"Render", srv.Addr(), func(cli *Client) (any, error) {
			fb, n, _, err := cli.Render(params)
			if err != nil {
				return nil, err
			}
			return []any{render.CompressFramebuffer(fb), n}, nil
		}},
		{"Stats", srv.Addr(), func(cli *Client) (any, error) {
			r, err := cli.Stats() // the session table names connections; the counters do not
			return []any{r.Stats, r.Pipeline}, err
		}},
		{"Compute", w.Addr(), func(cli *Client) (any, error) {
			out, err := cli.Compute(context.Background(), KernelHybridExtract, req)
			return append([]byte(nil), out...), err
		}},
	} {
		t.Run(c.verb, func(t *testing.T) {
			cli, dials := redialingClient(t, c.addr)
			wantRes, err := c.call(undisturbed[c.addr])
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.call(cli)
			if err != nil {
				t.Fatalf("%s over a reset connection: %v", c.verb, err)
			}
			if !reflect.DeepEqual(got, wantRes) {
				t.Errorf("%s after the redial differs from the undisturbed call", c.verb)
			}
			if n := cli.Redials(); n != 1 {
				t.Errorf("Redials() = %d, want 1", n)
			}
			if n := dials.Load(); n != 2 {
				t.Errorf("dials = %d, want 2 (one reset, one redialed)", n)
			}
		})
	}

	// One redial serves every call the lost connection was carrying.
	t.Run("concurrent FetchFrame", func(t *testing.T) {
		cli, dials := redialingClient(t, srv.Addr())
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, _, _, err := cli.FetchFrame(1)
				if err != nil {
					t.Error(err)
				} else if !bytes.Equal(rep.AppendBinary(nil), want) {
					t.Error("frame after the redial differs from the store's encoding")
				}
			}()
		}
		wg.Wait()
		if n, d := cli.Redials(), dials.Load(); n != 1 || d != 2 {
			t.Errorf("Redials() = %d over %d dials, want 1 over 2", n, d)
		}
	})

	// A delta that does not reconstruct against the caller's base is the
	// base's fault, not the link's: the client falls back to a full fetch
	// and redials nothing.
	t.Run("FetchFrameDelta wrong base", func(t *testing.T) {
		cli, err := DialWith(srv.Addr(), ClientOptions{HeartbeatInterval: -1, Retry: fastReconnectRetry})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wrong := append([]byte(nil), base...)
		wrong[len(wrong)/2] ^= 0xff
		_, enc, n, _, err := cli.FetchFrameDelta(1, 0, wrong)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) || n != int64(len(want)) {
			t.Errorf("fallback returned %d bytes (%d on the wire), want the full frame's %d", len(enc), n, len(want))
		}
		if r := cli.Redials(); r != 0 {
			t.Errorf("Redials() = %d after a reconstruction failure, want 0", r)
		}
	})
}

// TestConnClientNeverRedials: a client made over a connection its owner
// handed in redials nothing, whatever its options say — over the same
// fault its call fails with ErrClientClosed, and so does the next.
func TestConnClientNeverRedials(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	cli, err := NewClientConn(newFaultConn(conn, faultPoint{kind: faultReset, offset: 20}, faultPoint{}), ClientOptions{
		HeartbeatInterval: -1,
		Retry:             fastReconnectRetry,
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.Dial("tcp", addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 2; i++ {
		if _, err := cli.List(); !errors.Is(err, ErrClientClosed) {
			t.Errorf("List %d over a reset connection = %v, want ErrClientClosed in the chain", i, err)
		}
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("dials = %d, want 0", n)
	}
	if n := cli.Redials(); n != 0 {
		t.Errorf("Redials() = %d, want 0", n)
	}
}
