package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pipeline"
)

// fastFleetRetry keeps failover tests fast and deterministic (no
// jitter, millisecond backoffs).
var fastFleetRetry = pipeline.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: -1}

func fleetNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func extractFixture() (octree.Config, hybrid.ExtractConfig) {
	tcfg := octree.DefaultConfig()
	tcfg.Workers = 2
	return tcfg, hybrid.ExtractConfig{VolumeRes: 8, Budget: 600, Workers: 2}
}

// wantExtracts computes the local, bit-exact reference encodings for
// frames seeded 0..n-1.
func wantExtracts(t *testing.T, n, pts int) [][]byte {
	t.Helper()
	tcfg, ecfg := extractFixture()
	want := make([][]byte, n)
	for f := range want {
		tree, err := octree.Build(testPoints(int64(f), pts), tcfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := hybrid.Extract(tree, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		want[f] = rep.AppendBinary(nil)
	}
	return want
}

// runFleetExtracts pushes frames 0..n-1 through the fleet
// concurrently and checks every reply against the local reference.
func runFleetExtracts(t *testing.T, fl *Fleet, n, pts int, want [][]byte) {
	t.Helper()
	tcfg, ecfg := extractFixture()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for f := 0; f < n; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rep, err := fl.ComputeExtract(context.Background(), testPoints(int64(f), pts), tcfg, ecfg)
			if err != nil {
				errs <- fmt.Errorf("frame %d: %w", f, err)
				return
			}
			if !bytes.Equal(rep.AppendBinary(nil), want[f]) {
				errs <- fmt.Errorf("frame %d: fleet extraction not bit-identical", f)
			}
		}(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFleetStripesAcrossWorkers: a healthy 3-worker fleet serves a
// concurrent frame burst bit-identically to the local pair, and every
// member actually receives work (striping, not failover, spreads the
// load).
func TestFleetStripesAcrossWorkers(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, startWorker(t).Addr())
	}
	before := runtime.NumGoroutine() // workers up, fleet not yet built
	fl, err := NewFleet(addrs, FleetOptions{Kernel: KernelHybridExtract, Window: 2, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 12
	runFleetExtracts(t, fl, frames, 1500, wantExtracts(t, frames, 1500))
	var total int64
	for _, st := range fl.Stats() {
		if st.State != WorkerHealthy {
			t.Errorf("worker %s state = %v, want healthy", st.Addr, st.State)
		}
		if st.Dispatched == 0 {
			t.Errorf("worker %s received no dispatches (no striping)", st.Addr)
		}
		total += st.Dispatched
	}
	if total != frames {
		t.Errorf("fleet dispatched %d requests, want %d", total, frames)
	}
	fl.Close()
	fleetNoLeaks(t, before)
}

// failoverFleet builds a 2-worker fleet whose first member's
// connections carry the given faults; frames must still all complete,
// bit-identically, via the clean member.
func failoverFleet(t *testing.T, read, write faultPoint, timeout time.Duration) *Fleet {
	t.Helper()
	faulty := startWorker(t)
	clean := startWorker(t)
	fl, err := NewFleet([]string{faulty.Addr(), clean.Addr()}, FleetOptions{
		Kernel:         KernelHybridExtract,
		Window:         2,
		RequestTimeout: timeout,
		Retry:          fastFleetRetry,
		EjectAfter:     1,
		ProbeInterval:  -1,
		Dial:           faultyDial(faulty.Addr(), read, write),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl
}

// checkFailover asserts the faulty member was ejected and the clean
// one served frames.
func checkFailover(t *testing.T, fl *Fleet) {
	t.Helper()
	st := fl.Stats()
	if st[0].State != WorkerEjected {
		t.Errorf("faulty worker state = %v, want ejected", st[0].State)
	}
	if st[0].Failures == 0 {
		t.Error("faulty worker recorded no failures")
	}
	if st[1].State != WorkerHealthy || st[1].Dispatched == 0 {
		t.Errorf("clean worker state = %v dispatched = %d, want a healthy worker that served frames",
			st[1].State, st[1].Dispatched)
	}
}

// The kernel-advertisement exchange ends at read offset 68 / write
// offset 25 on a fresh connection (12- and 8-byte handshakes plus the
// Kernels round trip), so faults at offset 100 land deterministically
// inside the first Compute exchange.

// TestFleetFailoverCorruptReply: a worker whose replies corrupt on
// the wire (CRC mismatch severs the session) forfeits its frames to
// the surviving member; output stays complete and bit-identical.
func TestFleetFailoverCorruptReply(t *testing.T) {
	fl := failoverFleet(t, faultPoint{kind: faultCorrupt, offset: 100}, faultPoint{}, -1)
	const frames = 8
	runFleetExtracts(t, fl, frames, 1500, wantExtracts(t, frames, 1500))
	checkFailover(t, fl)
}

// TestFleetFailoverConnReset: a worker whose connection resets
// mid-request is ejected after the transport failure and its frames
// re-dispatch.
func TestFleetFailoverConnReset(t *testing.T) {
	fl := failoverFleet(t, faultPoint{}, faultPoint{kind: faultReset, offset: 100}, -1)
	const frames = 8
	runFleetExtracts(t, fl, frames, 1500, wantExtracts(t, frames, 1500))
	checkFailover(t, fl)
}

// TestFleetFailoverStalledWorker: a worker that accepts requests but
// never replies trips the per-request deadline; the frames it was
// holding re-dispatch to the surviving member.
func TestFleetFailoverStalledWorker(t *testing.T) {
	fl := failoverFleet(t, faultPoint{kind: faultStall, offset: 100}, faultPoint{}, time.Second)
	const frames = 6
	runFleetExtracts(t, fl, frames, 1500, wantExtracts(t, frames, 1500))
	checkFailover(t, fl)
}

// TestFleetFailoverDroppedReplies: a worker whose replies vanish
// (bytes silently swallowed) behaves like a stall — deadline, eject,
// re-dispatch.
func TestFleetFailoverDroppedReplies(t *testing.T) {
	fl := failoverFleet(t, faultPoint{kind: faultDrop, offset: 100}, faultPoint{}, time.Second)
	const frames = 6
	runFleetExtracts(t, fl, frames, 1500, wantExtracts(t, frames, 1500))
	checkFailover(t, fl)
}

// TestFleetWorkerCrashMidBurst: a member killed outright mid-burst
// (not fault-injected — the process is gone) loses no frames.
func TestFleetWorkerCrashMidBurst(t *testing.T) {
	doomed := startWorker(t)
	survivor := startWorker(t)
	fl, err := NewFleet([]string{doomed.Addr(), survivor.Addr()}, FleetOptions{
		Kernel:        KernelHybridExtract,
		Window:        2,
		Retry:         fastFleetRetry,
		EjectAfter:    1,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	const frames = 10
	want := wantExtracts(t, frames, 1500)
	// Kill the first member once a couple of frames have completed.
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		time.Sleep(20 * time.Millisecond)
		doomed.Close()
	}()
	runFleetExtracts(t, fl, frames, 1500, want)
	done.Wait()
	st := fl.Stats()
	if st[1].State != WorkerHealthy {
		t.Errorf("survivor state = %v, want healthy", st[1].State)
	}
}

// TestFleetAllWorkersDown: when every member is gone the stream gets
// a clean error once the retry policy is spent — no hang, no leak.
func TestFleetAllWorkersDown(t *testing.T) {
	before := runtime.NumGoroutine()
	w := startWorker(t)
	fl, err := NewFleet([]string{w.Addr()}, FleetOptions{
		Kernel:        KernelHybridExtract,
		Retry:         fastFleetRetry,
		EjectAfter:    1,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	tcfg, ecfg := extractFixture()
	_, err = fl.ComputeExtract(context.Background(), testPoints(0, 500), tcfg, ecfg)
	if err == nil {
		t.Fatal("ComputeExtract succeeded against a dead fleet")
	}
	if !strings.Contains(err.Error(), "fleet compute failed") {
		t.Errorf("error = %v, want a fleet compute failure", err)
	}
	fl.Close()
	fleetNoLeaks(t, before)
}

// TestFleetRejoinAfterEjection: an ejected member that comes back is
// re-probed, re-verified, and readmitted — and serves frames again.
func TestFleetRejoinAfterEjection(t *testing.T) {
	a := startWorker(t)
	b := startWorker(t)
	// a dies and is replaced by a2 on the same address, so the accept
	// goroutine count nets out against this snapshot.
	before := runtime.NumGoroutine()
	addrA := a.Addr()
	fl, err := NewFleet([]string{addrA, b.Addr()}, FleetOptions{
		Kernel:        KernelHybridExtract,
		Window:        2,
		Retry:         fastFleetRetry,
		EjectAfter:    1,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	a.Close()
	const frames = 6
	runFleetExtracts(t, fl, frames, 1000, wantExtracts(t, frames, 1000))
	if st := fl.Stats(); st[0].State != WorkerEjected {
		t.Fatalf("dead worker state = %v, want ejected", st[0].State)
	}

	// Resurrect the worker on the same address; the probe must bring
	// it back.
	a2, err := NewWorker(addrA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fl.Stats()
		if st[0].State == WorkerHealthy && st[0].Rejoins == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never rejoined: %+v", st[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	runFleetExtracts(t, fl, frames, 1000, wantExtracts(t, frames, 1000))
	if st := fl.Stats(); st[0].State != WorkerHealthy {
		t.Errorf("rejoined worker state = %v, want healthy", st[0].State)
	}
	fl.Close()
	fleetNoLeaks(t, before)
}

// TestNewFleetMisprovisioned: a reachable worker that does not host
// the fleet's kernel is a configuration error, not a degraded member.
func TestNewFleetMisprovisioned(t *testing.T) {
	w := startWorker(t)
	_, err := NewFleet([]string{w.Addr()}, FleetOptions{Kernel: "no.such.kernel.v1", ProbeInterval: -1})
	if err == nil || !strings.Contains(err.Error(), "does not host kernel") {
		t.Fatalf("NewFleet = %v, want a mis-provisioning error", err)
	}
}

// TestNewFleetPartiallyReachable: an unreachable member starts
// ejected; the fleet still forms around the reachable one. A fleet
// with no reachable member at all fails construction.
func TestNewFleetPartiallyReachable(t *testing.T) {
	w := startWorker(t)
	dead, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()

	fl, err := NewFleet([]string{deadAddr, w.Addr()}, FleetOptions{Kernel: KernelHybridExtract, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := fl.Stats()
	if st[0].State != WorkerEjected || st[1].State != WorkerHealthy {
		t.Errorf("states = %v/%v, want ejected/healthy", st[0].State, st[1].State)
	}
	fl.Close()

	if _, err := NewFleet([]string{deadAddr}, FleetOptions{Kernel: KernelHybridExtract, ProbeInterval: -1}); err == nil {
		t.Error("NewFleet built a fleet with zero reachable members")
	}
}

// TestIsTransient pins the retry taxonomy: transport trouble and
// draining workers re-dispatch; deterministic application errors and
// caller cancellation do not.
func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, true},
		{errFleetClosed, false},
		{errNoWorkers, true},
		{&WireError{Code: ErrCodeUnavailable, Msg: "draining"}, true},
		{&WireError{Code: ErrCodeBadRequest, Msg: "bad"}, false},
		{&WireError{Code: ErrCodeUnknownKernel, Msg: "nope"}, false},
		{&WireError{Code: ErrCodeGeneric, Msg: "kernel failed"}, false},
		{errors.New("read tcp: connection reset by peer"), true},
		{fmt.Errorf("frame 3: %w", context.Canceled), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestWorkerKernelsAdvertised: the Kernels verb lists the built-in
// kernel set, sorted. A kernel workers no longer host is refused with
// the typed unknown-kernel error, the answer any protocol v8 requester
// already handles.
func TestWorkerKernelsAdvertised(t *testing.T) {
	w := startWorker(t)
	cli := dial(t, w.Addr())
	names, err := cli.Kernels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{KernelHybridExtract, KernelRenderPartial}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Kernels = %v, want %v", names, want)
	}
	if _, err := cli.Compute(context.Background(), "fieldline.trace.v1", nil); CodeOf(err) != ErrCodeUnknownKernel {
		t.Errorf("Compute(fieldline.trace.v1) = %v, want ErrCodeUnknownKernel", err)
	}
}

// TestWorkerGracefulDrain: Shutdown lets in-flight kernels finish and
// answers new Computes with the retryable unavailable code, so a
// fleet hands the refused frames to surviving members.
func TestWorkerGracefulDrain(t *testing.T) {
	w := startWorker(t)
	release := make(chan struct{})
	var entered sync.Once
	started := make(chan struct{})
	w.Register("slow.v1", func(ctx context.Context, req []byte) ([]byte, error) {
		entered.Do(func() { close(started) })
		select {
		case <-release:
			return append(getBytes(0), 0x7), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	cli := dial(t, w.Addr())

	slowErr := make(chan error, 1)
	go func() {
		out, err := cli.Compute(context.Background(), "slow.v1", nil)
		if err == nil && (len(out) != 1 || out[0] != 0x7) {
			err = fmt.Errorf("slow kernel returned %v", out)
		}
		slowErr <- err
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- w.Shutdown(context.Background()) }()

	// Drain mode flips asynchronously: poll with a kernel the worker
	// does not host — answered UnknownKernel before the flip,
	// Unavailable after — so the poll never parks on the slow kernel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cli.Compute(context.Background(), "nope.v1", nil)
		if CodeOf(err) == ErrCodeUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never started refusing requests (last err: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	if err := <-slowErr; err != nil {
		t.Errorf("in-flight kernel did not survive the drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
	if _, err := Dial(w.Addr()); err == nil {
		t.Error("drained worker still accepts new connections")
	}
}
