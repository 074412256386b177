package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/vec"
)

func startWorker(t testing.TB) *Worker {
	t.Helper()
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// startWorkerWith starts a worker holding the built-in kernels and k
// under name.
func startWorkerWith(t testing.TB, name string, k Kernel) *Worker {
	t.Helper()
	w, err := newService("127.0.0.1:0", nil, map[string]Kernel{
		KernelHybridExtract: hybridExtractKernel(),
		KernelRenderPartial: renderPartialKernel(),
		name:                k,
	}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// soloFleet dials the worker at addr as a fleet of one — how core
// reaches a single worker address.
func soloFleet(t testing.TB, addr string, opts FleetOptions) *Fleet {
	t.Helper()
	opts.ProbeInterval = -1
	fl, err := NewFleet([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl
}

func testPoints(seed int64, n int) []vec.V3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.V3, n)
	for i := range pts {
		pts[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	return pts
}

// TestComputeExtractBitIdentical: the worker's hybrid-extraction
// kernel must reproduce the local Build+Extract pair byte for byte,
// with several frames in flight on one connection.
func TestComputeExtractBitIdentical(t *testing.T) {
	const frames = 6
	w := startWorker(t)
	fl := soloFleet(t, w.Addr(), FleetOptions{Kernel: KernelHybridExtract, Window: frames})

	tcfg := octree.DefaultConfig()
	ecfg := hybrid.ExtractConfig{VolumeRes: 8, Budget: 600}

	want := make([][]byte, frames)
	for f := range want {
		tree, err := octree.Build(testPoints(int64(f), 3000), tcfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := hybrid.Extract(tree, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		want[f] = rep.AppendBinary(nil)
	}

	// All frames concurrently, multiplexed on the one connection.
	var wg sync.WaitGroup
	errs := make(chan error, frames)
	for f := 0; f < frames; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rep, err := fl.ComputeExtract(context.Background(), testPoints(int64(f), 3000), tcfg, ecfg)
			if err != nil {
				errs <- fmt.Errorf("frame %d: %w", f, err)
				return
			}
			if !bytes.Equal(rep.AppendBinary(nil), want[f]) {
				errs <- fmt.Errorf("frame %d: remote extraction not bit-identical", f)
			}
		}(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestComputeUnknownKernel: naming an unregistered kernel returns a
// typed error and the connection survives.
func TestComputeUnknownKernel(t *testing.T) {
	w := startWorker(t)
	cli := dial(t, w.Addr())
	_, err := cli.Compute(context.Background(), "no.such.kernel", []byte("blob"))
	if err == nil {
		t.Fatal("unknown kernel computed without error")
	}
	if CodeOf(err) != ErrCodeUnknownKernel {
		t.Errorf("error code %d, want ErrCodeUnknownKernel; err: %v", CodeOf(err), err)
	}
	// Connection still works.
	req := appendExtractRequest(nil, testPoints(1, 500), octree.DefaultConfig(), hybrid.ExtractConfig{VolumeRes: 4, Budget: 100})
	if _, err := cli.Compute(context.Background(), KernelHybridExtract, req); err != nil {
		t.Errorf("connection dead after unknown kernel: %v", err)
	}
}

// TestComputeMalformedBlob: a well-framed Compute whose kernel blob is
// corrupt gets a typed bad-request error (the blob's own CRC idiom at
// work), and the connection survives.
func TestComputeMalformedBlob(t *testing.T) {
	w := startWorker(t)
	cli := dial(t, w.Addr())

	good := appendExtractRequest(nil, testPoints(2, 100), octree.DefaultConfig(), hybrid.ExtractConfig{VolumeRes: 4, Budget: 50})
	for name, blob := range map[string][]byte{
		"empty":       {},
		"truncated":   good[:len(good)/2],
		"flipped bit": flipByte(good, len(good)-40),
		"bad magic":   flipByte(good, 0),
	} {
		_, err := cli.Compute(context.Background(), KernelHybridExtract, blob)
		if err == nil {
			t.Errorf("%s: computed without error", name)
			continue
		}
		if CodeOf(err) != ErrCodeBadRequest {
			t.Errorf("%s: error code %d, want ErrCodeBadRequest (%v)", name, CodeOf(err), err)
		}
	}
	// Connection survives the whole table.
	if _, err := cli.Compute(context.Background(), KernelHybridExtract, good); err != nil {
		t.Errorf("connection dead after malformed blobs: %v", err)
	}
}

// TestComputeImplausibleConfig: a well-formed extract request whose
// configs no extraction can honour — a 100000³ volume, which once
// reached make in hybrid.NewGrid and ended the process, or a
// non-finite threshold — gets a typed error, and the connection serves
// the next request.
func TestComputeImplausibleConfig(t *testing.T) {
	w := startWorker(t)
	cli := dial(t, w.Addr())
	pts := testPoints(4, 3)
	for _, ecfg := range []hybrid.ExtractConfig{
		{VolumeRes: 100000, Budget: 2},
		{VolumeRes: 4, Threshold: math.NaN()},
		{VolumeRes: 4, Threshold: math.Inf(1)},
	} {
		_, err := cli.Compute(context.Background(), KernelHybridExtract, appendExtractRequest(nil, pts, octree.DefaultConfig(), ecfg))
		var we *WireError
		if !errors.As(err, &we) {
			t.Errorf("%+v: error %v, want a WireError", ecfg, err)
		}
	}
	good := appendExtractRequest(nil, testPoints(5, 100), octree.DefaultConfig(), hybrid.ExtractConfig{VolumeRes: 4, Budget: 50})
	if _, err := cli.Compute(context.Background(), KernelHybridExtract, good); err != nil {
		t.Errorf("connection dead after implausible configs: %v", err)
	}
}

// TestPayloadBufferSurvivesCollection: a recycled payload buffer is
// still there for the next message after collections — a sync.Pool
// dropped it, so what the wire path re-allocated depended on GC timing.
func TestPayloadBufferSurvivesCollection(t *testing.T) {
	b := getBytes(4096)
	putBytes(b)
	runtime.GC()
	runtime.GC()
	if got := getBytes(4096); &got[0] != &b[0] {
		t.Error("the payload buffer did not survive two collections")
	}
}

// TestComputeAgainstService: a frame service does not speak Compute —
// the client gets a typed unknown-verb error (not a dropped
// connection) and can keep using the session for the verbs the
// service does speak.
func TestComputeAgainstService(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	cli := dial(t, srv.Addr())
	_, err := cli.Compute(context.Background(), KernelHybridExtract, nil)
	if err == nil {
		t.Fatal("service answered Compute without error")
	}
	if CodeOf(err) != ErrCodeUnknownVerb {
		t.Errorf("error code %d, want ErrCodeUnknownVerb (%v)", CodeOf(err), err)
	}
	var we *WireError
	if !errors.As(err, &we) {
		t.Error("error chain carries no *WireError")
	}
	if _, err := cli.List(); err != nil {
		t.Errorf("connection dead after unknown verb: %v", err)
	}
}

// TestWorkerRejectsStoreVerbs: the inverse direction — store verbs
// against a worker come back typed, connection intact.
func TestWorkerRejectsStoreVerbs(t *testing.T) {
	w := startWorker(t)
	cli := dial(t, w.Addr())
	if _, err := cli.List(); err == nil || CodeOf(err) != ErrCodeUnknownVerb {
		t.Errorf("List against worker: err %v, want ErrCodeUnknownVerb", err)
	}
	req := appendExtractRequest(nil, testPoints(3, 300), octree.DefaultConfig(), hybrid.ExtractConfig{VolumeRes: 4, Budget: 50})
	if _, err := cli.Compute(context.Background(), KernelHybridExtract, req); err != nil {
		t.Errorf("compute after rejected verb: %v", err)
	}
}

// TestComputeWorkerCrash: closing the worker mid-request fails the
// in-flight Compute promptly instead of hanging.
func TestComputeWorkerCrash(t *testing.T) {
	// A kernel that parks until its context dies; the worker crashes
	// under it.
	block := make(chan struct{})
	w := startWorkerWith(t, "test.block", func(ctx context.Context, req []byte) ([]byte, error) {
		close(block)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	cli := dial(t, w.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := cli.Compute(context.Background(), "test.block", nil)
		done <- err
	}()
	<-block
	w.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("compute succeeded across a worker crash")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("compute hung after worker close")
	}
}

// TestComputeContextCancel: cancelling the caller's context abandons
// the wait promptly even though the kernel is still running.
func TestComputeContextCancel(t *testing.T) {
	started := make(chan struct{})
	w := startWorkerWith(t, "test.slow", func(ctx context.Context, req []byte) ([]byte, error) {
		close(started)
		select {
		case <-ctx.Done():
		case <-time.After(30 * time.Second):
		}
		return getBytes(0), nil
	})
	cli := dial(t, w.Addr())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.Compute(ctx, "test.slow", nil)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("compute returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("compute did not observe cancellation")
	}
}
