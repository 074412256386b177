package remote

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

// stalledInlineSub opens a raw connection, subscribes with inline
// payloads, and never reads a byte again — the pathological viewer
// every overload test needs: its TCP buffers fill, the server-side
// drain blocks mid-write, and the send queue overflows.
func stalledInlineSub(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := clientHello(conn); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := writeMessage(bw, 1, opSubscribe, []byte{subFlagInline}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitSubscribed polls the service's session table until n sessions
// show an active subscription — the raw subscribers above never read
// their SubscribeOK, so this is how tests know registration happened.
func waitSubscribed(t testing.TB, srv *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		subscribed := 0
		for _, row := range srv.statsReport().Sessions {
			if row.Subscribed {
				subscribed++
			}
		}
		if subscribed >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d subscribed sessions", n)
}

// serveLive serves a fresh LiveRing with the given options; the test
// publishes into the returned ring.
func serveLive(t testing.TB, capacity int, opts ServiceOptions) (*Service, *LiveRing) {
	t.Helper()
	ring, err := NewLiveRing(capacity)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServiceWith("127.0.0.1:0", ring, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ring
}

// publishFrames pushes at least n frames (the same representation
// re-indexed), then keeps publishing until until reports true (nil
// stops at n) or 10 s have passed. It returns the frame count reached
// and the wall time the first n publishes took — the number the
// isolation tests bound, because a publisher stalled behind a wedged
// subscriber is exactly the failure the send queues exist to prevent.
// The overload tests publish until their overflow counter moves: how
// many frames a stalled subscriber's socket buffers absorb before its
// queue overflows depends on the host, and under the race detector 60
// frames of ~100 kB can all fit.
func publishFrames(t testing.TB, ring *LiveRing, rep *hybrid.Representation, n int, until func() bool) (int, time.Duration) {
	t.Helper()
	start := time.Now()
	var took time.Duration
	for i := 0; ; i++ {
		if i == n {
			took = time.Since(start)
		}
		if i >= n && (until == nil || until() || time.Since(start) > 10*time.Second) {
			return ring.NumFrames(), took
		}
		if err := ring.Publish(ring.NumFrames(), rep); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStalledSubscriberIsolation: a subscriber that stops reading must
// cost the publisher nothing and the healthy subscribers nothing. The
// stalled connection's queue overflows (SlowSkip drops the oldest
// pushes), the publish loop finishes promptly, and a healthy count-only
// subscriber still sees the final frame count.
func TestStalledSubscriberIsolation(t *testing.T) {
	const nFrames = 60
	rep := testReps(t, 1)[0]
	srv, ring := serveLive(t, 4, ServiceOptions{SendQueue: 2})

	stalledInlineSub(t, srv.Addr())
	waitSubscribed(t, srv, 1)

	healthy := dial(t, srv.Addr())
	sub, err := healthy.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	dropped := func() bool { return srv.Stats().PushesDropped > 0 }
	frames, took := publishFrames(t, ring, rep, nFrames, dropped)
	// ~6MB of frames against a reader that accepts none of it: without
	// queue isolation the publisher would park on the dead connection's
	// TCP window for the duration. Bound it generously — the point is
	// "milliseconds, not wedged", not a tight benchmark.
	if took > 5*time.Second {
		t.Errorf("publishing %d frames took %v with one stalled subscriber — publisher blocked", nFrames, took)
	}

	deadline := time.After(10 * time.Second)
	for seen := 0; seen < frames; {
		select {
		case n, ok := <-sub.Updates:
			if !ok {
				t.Fatal("healthy subscription closed early")
			}
			seen = n
		case <-deadline:
			t.Fatal("healthy subscriber never saw the final frame")
		}
	}
	if n := srv.Stats().PushesDropped; n == 0 {
		t.Error("PushesDropped = 0 — the stalled subscriber's queue never overflowed")
	}
	if n := srv.Stats().SessionsEvicted; n != 0 {
		t.Errorf("SessionsEvicted = %d under SlowSkip, want 0", n)
	}
}

// TestSlowPolicyDegrade: under SlowDegrade an overflowing subscriber is
// downgraded to count-only notifies, never evicted — the degrade
// counters move, the evict counter does not, and the publisher stays
// unblocked.
func TestSlowPolicyDegrade(t *testing.T) {
	const nFrames = 60
	rep := testReps(t, 1)[0]
	srv, ring := serveLive(t, 4, ServiceOptions{SendQueue: 2, Slow: SlowDegrade})

	stalledInlineSub(t, srv.Addr())
	waitSubscribed(t, srv, 1)

	degraded := func() bool { return srv.Stats().PushesDegraded > 0 }
	if _, took := publishFrames(t, ring, rep, nFrames, degraded); took > 5*time.Second {
		t.Errorf("publishing took %v under SlowDegrade — publisher blocked", took)
	}
	if n := srv.Stats().PushesDegraded; n == 0 {
		t.Error("PushesDegraded = 0 — the degrade policy never engaged")
	}
	if n := srv.Stats().SessionsEvicted; n != 0 {
		t.Errorf("SessionsEvicted = %d under SlowDegrade, want 0", n)
	}
}

// TestSlowPolicyEvict: under SlowEvict the overflowing subscriber is
// severed (best-effort retryable error, then connection close) and its
// session leaves the table; the publisher never blocks on the
// eviction's bounded write.
func TestSlowPolicyEvict(t *testing.T) {
	const nFrames = 60
	rep := testReps(t, 1)[0]
	srv, ring := serveLive(t, 4, ServiceOptions{SendQueue: 2, Slow: SlowEvict})

	stalledInlineSub(t, srv.Addr())
	waitSubscribed(t, srv, 1)

	evicted := func() bool { return srv.Stats().SessionsEvicted > 0 }
	if _, took := publishFrames(t, ring, rep, nFrames, evicted); took > 5*time.Second {
		t.Errorf("publishing took %v under SlowEvict — publisher blocked", took)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.Stats().SessionsEvicted == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if n := srv.Stats().SessionsEvicted; n != 1 {
		t.Fatalf("SessionsEvicted = %d, want 1", n)
	}
	// The eviction closes the connection, which the server's read loop
	// notices and reaps the session.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.SessionCount() != 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("SessionCount = %d after eviction, want 0", n)
	}
}

// TestSilentPeerBeforeHelloIsReaped: the idle reaper covers the
// handshake. A peer that connects and never sends its hello must lose
// its connection after the idle timeout, not hold a goroutine and a
// socket for good.
func TestSilentPeerBeforeHelloIsReaped(t *testing.T) {
	srv, _ := serveLive(t, 4, ServiceOptions{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("a peer silent before its hello still holds its connection after 3 s")
	}
	if err == nil {
		t.Fatalf("read %d bytes from a server that has not heard a hello", n)
	}
}

// blockingStore wedges every Frame call until its gate opens, so a
// render can be held mid-flight while another arrives — the fixture
// for the MaxRenders gate.
type blockingStore struct {
	*MemStore
	gate  chan struct{}
	calls atomic.Int32
}

func (s *blockingStore) Frame(i int) (*hybrid.Representation, error) {
	s.calls.Add(1)
	<-s.gate
	return s.MemStore.Frame(i)
}

// TestMaxRendersRefuses: with one render slot occupied by a render
// wedged inside the store, a second render for a different frame is
// refused immediately with retryable ErrCodeUnavailable instead of
// queueing behind the rasterizer.
func TestMaxRendersRefuses(t *testing.T) {
	mem, err := NewMemStore(testReps(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	store := &blockingStore{MemStore: mem, gate: make(chan struct{})}
	srv, err := NewServiceWith("127.0.0.1:0", store, ServiceOptions{MaxRenders: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := dial(t, srv.Addr())

	params := RenderParams{Frame: 0, Width: 32, Height: 32, ViewDir: vec.New(0.4, 0.3, 1)}
	first := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Render(params)
		first <- err
	}()
	// Wait until the first render holds the gate inside Frame.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && store.calls.Load() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if store.calls.Load() == 0 {
		t.Fatal("first render never reached the store")
	}

	// A different frame, so the render cache's single-flight coalescing
	// cannot merge it with the in-flight render.
	second := params
	second.Frame = 1
	_, _, _, err = cli.Render(second)
	if code := CodeOf(err); code != ErrCodeUnavailable {
		t.Fatalf("second render = %v (code %d), want retryable ErrCodeUnavailable", err, code)
	}
	if !IsTransient(err) {
		t.Error("render refusal not classified transient — dialed clients would give up")
	}

	close(store.gate)
	if err := <-first; err != nil {
		t.Fatalf("gated render failed after release: %v", err)
	}
	if n := srv.Stats().RendersRefused; n != 1 {
		t.Errorf("RendersRefused = %d, want 1", n)
	}
}

// TestSubscribeRefusalIsTyped: a refused Subscribe carries the server's
// error code like every other verb. An admission-refused session must
// read as retryable ErrCodeUnavailable, with the message text and not
// the raw code byte in the error.
func TestSubscribeRefusalIsTyped(t *testing.T) {
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
		t.Fatal(err)
	}

	refused := dial(t, srv.Addr())
	_, listErr := refused.List()
	_, err = refused.Subscribe()
	if code := CodeOf(err); code != ErrCodeUnavailable || code != CodeOf(listErr) {
		t.Fatalf("refused Subscribe = %v (code %d), want ErrCodeUnavailable like List's %v", err, code, listErr)
	}
	if !IsTransient(err) {
		t.Error("subscribe refusal not classified transient")
	}
	if strings.ContainsRune(err.Error(), rune(ErrCodeUnavailable)) {
		t.Errorf("error text carries the raw code byte: %q", err)
	}
}

// TestStatsVerb drives the v5 measurement surface end to end: Ping
// moves the heartbeat counter, Subscribe appears in the session table
// with the queue geometry, and the whole report survives the wire.
func TestStatsVerb(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	cli := dial(t, srv.Addr())

	if _, err := cli.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	sub, err := cli.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	r, err := cli.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if r.Stats.Pings == 0 {
		t.Error("Pings = 0 after an explicit Ping")
	}
	if len(r.Sessions) == 0 {
		t.Fatal("session table empty with a live session")
	}
	// A MemStore is not live, so Subscribe gets no queue; the row still
	// exists with identity and admission state.
	for _, row := range r.Sessions {
		if row.Refused {
			t.Errorf("session %d marked refused with no admission limit", row.ID)
		}
		if row.Remote == "" {
			t.Errorf("session %d has no remote address", row.ID)
		}
	}
}

// TestStatsVerbLiveQueue is TestStatsVerb against a live store, where
// the subscription owns a real send queue whose geometry and counters
// the table must expose.
func TestStatsVerbLiveQueue(t *testing.T) {
	srv, ring := serveLive(t, 4, ServiceOptions{})
	rep := testReps(t, 1)[0]
	cli := dial(t, srv.Addr())
	sub, err := cli.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribed(t, srv, 1)

	publishFrames(t, ring, rep, 2, nil)
	// Drain so Sent moves.
	deadline := time.After(5 * time.Second)
	for n := 0; n < 2; {
		select {
		case n = <-sub.Updates:
		case <-deadline:
			t.Fatal("subscriber never saw the published frames")
		}
	}

	r, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var row *SessionStats
	for i := range r.Sessions {
		if r.Sessions[i].Subscribed {
			row = &r.Sessions[i]
		}
	}
	if row == nil {
		t.Fatal("no subscribed session in the table")
	}
	if row.QueueCap != DefaultSendQueue {
		t.Errorf("QueueCap = %d, want DefaultSendQueue (%d)", row.QueueCap, DefaultSendQueue)
	}
	if row.Sent == 0 || row.LastSent == 0 {
		t.Errorf("Sent = %d, LastSent = %d after deliveries, want both > 0", row.Sent, row.LastSent)
	}
	if row.Inline {
		t.Error("count-only subscription reported inline")
	}
}

// SessionCount returns the number of live admitted sessions — the
// baseline the subscription-churn leak tests assert against.
func (s *Service) SessionCount() int {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.admitted
}
