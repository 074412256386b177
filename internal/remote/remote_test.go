package remote

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/volren"
)

func testReps(t testing.TB, n int) []*hybrid.Representation {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	reps := make([]*hybrid.Representation, n)
	for f := 0; f < n; f++ {
		pts := make([]vec.V3, 3000)
		for i := range pts {
			pts[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		}
		tree, err := octree.Build(pts, octree.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: 8, Budget: 500})
		if err != nil {
			t.Fatal(err)
		}
		reps[f] = rep
	}
	return reps
}

func serveMem(t testing.TB, reps []*hybrid.Representation) (*Service, *MemStore) {
	t.Helper()
	store, err := NewMemStore(reps)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewService("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, store
}

// dial opens a client over one connection that it never redials: the
// per-connection contract most of the protocol's tests pin down.
func dial(t testing.TB, addr string) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientConn(conn, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func TestServiceRoundTrip(t *testing.T) {
	reps := testReps(t, 3)
	srv, store := serveMem(t, reps)
	cli := dial(t, srv.Addr())

	li, err := cli.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if li.Frames != 3 || li.First != 0 || li.Live {
		t.Errorf("List = %+v, want 3 frames from 0, not live", li)
	}

	for i := 0; i < 3; i++ {
		rep, size, _, err := cli.FetchFrame(i)
		if err != nil {
			t.Fatalf("FetchFrame(%d): %v", i, err)
		}
		if rep.NumPoints() != reps[i].NumPoints() {
			t.Errorf("frame %d: %d points, want %d", i, rep.NumPoints(), reps[i].NumPoints())
		}
		if size != store.FrameBytes(i) {
			t.Errorf("frame %d: transferred %d bytes, store says %d", i, size, store.FrameBytes(i))
		}
		// The fetched frame re-encodes bit-identically: nothing was
		// lost or reordered in transit.
		enc := rep.AppendBinary(nil)
		want, _ := store.EncodedFrame(i)
		if !bytes.Equal(enc, want) {
			t.Errorf("frame %d: fetched frame re-encodes differently", i)
		}
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	reps := testReps(t, 2)
	dir := t.TempDir()
	for i, rep := range reps {
		if err := rep.WriteFile(filepath.Join(dir, fmt.Sprintf("frame_%04d.achy", i))); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.NumFrames() != 2 {
		t.Fatalf("dir store holds %d frames, want 2", store.NumFrames())
	}
	srv, err := NewService("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := dial(t, srv.Addr())
	for i := range reps {
		rep, size, _, err := cli.FetchFrame(i)
		if err != nil {
			t.Fatalf("FetchFrame(%d): %v", i, err)
		}
		if rep.NumPoints() != reps[i].NumPoints() {
			t.Errorf("frame %d: %d points, want %d", i, rep.NumPoints(), reps[i].NumPoints())
		}
		if fi, err := os.Stat(store.Path(i)); err == nil && size != fi.Size() {
			t.Errorf("frame %d: transferred %d bytes, file is %d", i, size, fi.Size())
		}
	}

	if _, err := NewDirStore(t.TempDir()); err == nil {
		t.Error("empty directory accepted")
	}
}

// TestDirStoreReadsOncePerScrubStep: a scrub step asks the store for a
// frame and, as its delta's base, for the frame the step before read.
// Inside the window the second request is the first one's bytes — the
// same backing array, no second os.ReadFile — and a long scrub retains
// no more than the window.
func TestDirStoreReadsOncePerScrubStep(t *testing.T) {
	rep := testReps(t, 1)[0]
	dir := t.TempDir()
	const frames = 100
	for i := 0; i < frames; i++ {
		if err := rep.WriteFile(filepath.Join(dir, fmt.Sprintf("frame_%04d.achy", i))); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.AppendBinary(nil)
	read := func(i int) *byte {
		t.Helper()
		enc, err := store.EncodedFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("frame %d: the window served %d bytes that are not the file's %d", i, len(enc), len(want))
		}
		return &enc[0]
	}
	first := read(0)
	if read(0) != first {
		t.Error("two reads of one frame inside the window returned different arrays: the file was read twice")
	}
	for i := 1; i <= maxDecodedFrames; i++ {
		read(i)
	}
	if read(0) == first {
		t.Errorf("frame 0 is still held after %d other frames: the window does not evict", maxDecodedFrames)
	}
	// The scrub of Service.deltaBlob, forward then backward: base, then frame.
	prev := read(0)
	for step := 1; step < 2*frames-1; step++ {
		i, base := step, step-1
		if step >= frames {
			i, base = 2*frames-2-step, 2*frames-1-step
		}
		if read(base) != prev {
			t.Fatalf("step %d: base frame %d, which the step before read, was read again", step, base)
		}
		prev = read(i)
		if n := len(store.encoded.entries); n > maxDecodedFrames {
			t.Fatalf("step %d: the window holds %d files, want at most %d", step, n, maxDecodedFrames)
		}
	}
	if _, err := store.EncodedFrame(frames); err == nil {
		t.Error("a frame beyond the directory was served")
	}
	// The decoded window is the same mechanism: one decode inside it,
	// a fresh one after maxDecodedFrames other frames.
	decoded := func(i int) *hybrid.Representation {
		t.Helper()
		rep, err := store.Frame(i)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep0 := decoded(0)
	if decoded(0) != rep0 {
		t.Error("two Frame calls inside the window decoded the file twice")
	}
	for i := 1; i <= maxDecodedFrames; i++ {
		decoded(i)
	}
	if decoded(0) == rep0 {
		t.Error("the decoded window does not evict")
	}
}

// TestTwoScrubbersReadOncePerStep is view_fetch's pattern through
// Service.deltaBlob itself: one viewer scrubbing forward and one
// backward, taking turns in every order two viewers can. A frame's file
// is removed as soon as a step has read it, so a step that goes back to
// the disk for its base — the frame its own viewer read last — fails
// with that file's name. (Asking for the frame before its base did:
// the base became the window's oldest entry just as the frame's read
// needed a victim.)
func TestTwoScrubbersReadOncePerStep(t *testing.T) {
	reps := testReps(t, 2)
	for _, turns := range []string{"ab", "aabb", "aab", "abb"} {
		dir := t.TempDir()
		const frames = 40
		path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("frame_%04d.achy", i)) }
		for i := 0; i < frames; i++ {
			if err := reps[i%2].WriteFile(path(i)); err != nil {
				t.Fatal(err)
			}
		}
		store, err := NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewService("127.0.0.1:0", store)
		if err != nil {
			t.Fatal(err)
		}
		at := map[byte]int{'a': 0, 'b': frames - 1}
		dir1 := map[byte]int{'a': 1, 'b': -1}
		for _, v := range []byte("ab") { // the first fetch of a session is a plain Get
			if _, err := srv.encodedFrame(at[v]); err != nil {
				t.Fatal(err)
			}
			os.Remove(path(at[v]))
		}
		for step := 0; step < 30; step++ {
			v := turns[step%len(turns)]
			base, frame := at[v], at[v]+dir1[v]
			blob, err := srv.deltaBlob(frame, base)
			if err != nil {
				t.Fatalf("turns %q step %d: delta %d→%d: %v", turns, step, base, frame, err)
			}
			want := reps[frame%2].AppendBinary(nil)
			if got, err := render.DecompressDelta(blob, reps[base%2].AppendBinary(nil)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("turns %q step %d: delta %d→%d does not rebuild the frame: %v", turns, step, base, frame, err)
			}
			os.Remove(path(frame))
			at[v] = frame
		}
		srv.Close()
	}
}

func TestFetchMissingFrame(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	cli := dial(t, srv.Addr())
	if _, _, _, err := cli.FetchFrame(99); err == nil {
		t.Error("missing frame fetched without error")
	}
	// The connection survives an application-level error.
	if _, _, _, err := cli.FetchFrame(0); err != nil {
		t.Errorf("fetch after error: %v", err)
	}
}

func TestBandwidthThrottle(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))

	fast := dial(t, srv.Addr())
	_, size, fastTime, err := fast.FetchFrame(0)
	if err != nil {
		t.Fatal(err)
	}

	slow := dial(t, srv.Addr())
	slow.SetBandwidth(size * 10) // frame takes ~100 ms
	_, _, slowTime, err := slow.FetchFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if slowTime < 80*time.Millisecond {
		t.Errorf("throttled fetch took %v, want >= ~100ms", slowTime)
	}
	if slowTime <= fastTime {
		t.Errorf("throttled (%v) not slower than unthrottled (%v)", slowTime, fastTime)
	}
}

func TestTransferEstimate(t *testing.T) {
	// The paper's numbers: 100MB frame at 10MB/s ~ 10 s.
	d := TransferEstimate(100<<20, 10<<20)
	if d < 9*time.Second || d > 11*time.Second {
		t.Errorf("100MB at 10MB/s = %v, want ~10s", d)
	}
	if TransferEstimate(100, 0) != 0 {
		t.Error("zero bandwidth should return 0")
	}
}

// framesEqual asserts two framebuffers match bit for bit.
func framesEqual(t *testing.T, got, want *render.Framebuffer, what string) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i := range want.Color {
		if math.Float32bits(got.Color[i]) != math.Float32bits(want.Color[i]) {
			t.Fatalf("%s: color word %d differs", what, i)
		}
	}
	for i := range want.Depth {
		if math.Float32bits(got.Depth[i]) != math.Float32bits(want.Depth[i]) {
			t.Fatalf("%s: depth word %d differs", what, i)
		}
	}
}

func TestRenderMatchesLocal(t *testing.T) {
	reps := testReps(t, 2)
	srv, _ := serveMem(t, reps)
	cli := dial(t, srv.Addr())

	params := RenderParams{Frame: 1, Width: 96, Height: 72, ViewDir: vec.New(0.4, 0.3, 1)}
	remoteFB, wire, _, err := cli.Render(params)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}

	// The thin-client contract: the shipped image is bit-identical to
	// fetching the frame and rendering locally.
	tf, err := hybrid.DefaultTF(reps[1])
	if err != nil {
		t.Fatal(err)
	}
	localFB, _, _, err := volren.RenderStill(reps[1], tf, 96, 72, params.ViewDir)
	if err != nil {
		t.Fatal(err)
	}
	framesEqual(t, remoteFB, localFB, "server-rendered frame")

	// And the economics: the compressed image is far smaller than the
	// raw framebuffer it stands for, and — at realistic frame sizes —
	// smaller than the frame transfer it replaces (checked against a
	// paper-regime frame in TestRenderEconomics).
	if raw := int64(96 * 72 * 20); wire >= raw {
		t.Errorf("server render shipped %d bytes, raw framebuffer is %d", wire, raw)
	}

	// TF overrides change the image but still decode cleanly.
	styled, _, _, err := cli.Render(RenderParams{
		Frame: 1, Width: 96, Height: 72, ViewDir: params.ViewDir,
		VolumeOpacity: 0.5, LogDomainK: 100,
	})
	if err != nil {
		t.Fatalf("styled render: %v", err)
	}
	same := true
	for i := range styled.Color {
		if styled.Color[i] != remoteFB.Color[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("TF overrides produced an identical image")
	}

	if _, _, _, err := cli.Render(RenderParams{Frame: 42, Width: 8, Height: 8, ViewDir: params.ViewDir}); err == nil {
		t.Error("render of missing frame succeeded")
	}
}

// TestRenderRefusesNonFiniteView sends a Render request whose view
// direction is NaN, as any float64 bits pass the wire. The camera built
// from it must be refused with a named error; a NaN camera's rays march
// toward +Inf forever and the request would never be answered.
func TestRenderRefusesNonFiniteView(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	cli := dial(t, srv.Addr())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Render(RenderParams{Frame: 0, Width: 16, Height: 16, ViewDir: vec.New(math.NaN(), 0, 1)})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "non-finite camera") {
			t.Fatalf("Render with a NaN view direction: err = %v, want the camera refused", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Render with a NaN view direction got no answer")
	}
}

// TestRenderNonFiniteParamsLeaveNoCacheEntry: the render cache keys on
// RenderParams, and a key holding a NaN never equals itself, so a
// request the cache saw could never be found again or removed. Every
// non-finite request is refused with an error, and none reaches the
// cache.
func TestRenderNonFiniteParamsLeaveNoCacheEntry(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	cli := dial(t, srv.Addr())
	nan, inf := math.NaN(), math.Inf(1)
	for i, p := range []RenderParams{
		{ViewDir: vec.New(nan, 0, 1)},
		{ViewDir: vec.New(0, -inf, 1)},
		{ViewDir: vec.New(0, 0, 1), VolumeOpacity: nan},
		{ViewDir: vec.New(0, 0, 1), VolumeOpacity: inf},
		{ViewDir: vec.New(0, 0, 1), LogDomainK: nan},
		{ViewDir: vec.New(0, 0, 1), LogDomainK: -inf},
		{ViewDir: vec.New(nan, nan, nan), VolumeOpacity: nan, LogDomainK: nan},
	} {
		p.Width, p.Height = 16, 16
		if _, _, _, err := cli.Render(p); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("request %d (%+v): err = %v, want a non-finite parameter refused", i, p, err)
		}
	}
	srv.renders.mu.Lock()
	n := len(srv.renders.entries)
	srv.renders.mu.Unlock()
	if n != 0 {
		t.Errorf("render cache holds %d entries after refused requests, want 0", n)
	}
}

// TestRenderEconomics builds a paper-regime frame (every particle a
// halo point) and checks the thin-client trade: the RLE image costs a
// small fraction of the frame transfer it replaces.
func TestRenderEconomics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]vec.V3, 40000)
	for i := range pts {
		pts[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: 16, Budget: int64(len(pts) / 2)})
	if err != nil {
		t.Fatal(err)
	}
	srv, store := serveMem(t, []*hybrid.Representation{rep})
	cli := dial(t, srv.Addr())
	_, wire, _, err := cli.Render(RenderParams{Frame: 0, Width: 128, Height: 128, ViewDir: vec.New(0.4, 0.3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if frame := store.FrameBytes(0); wire*2 >= frame {
		t.Errorf("server render shipped %d bytes vs %d frame bytes; want at least 2x savings", wire, frame)
	}
}

// TestMultiClientStress runs >= 8 concurrent clients mixing Get,
// Subscribe and Render on one service, asserting every transfer is
// bit-identical to the source data. Run under -race in CI.
func TestMultiClientStress(t *testing.T) {
	reps := testReps(t, 4)
	srv, store := serveMem(t, reps)

	tf, err := hybrid.DefaultTF(reps[2])
	if err != nil {
		t.Fatal(err)
	}
	wantFB, _, _, err := volren.RenderStill(reps[2], tf, 48, 48, vec.New(0.4, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantBlob := render.CompressFramebuffer(wantFB)

	const clients = 8
	var wg sync.WaitGroup
	// Every goroutine (outer + 12 inner per client) may report one
	// error; size for all of them so a broad failure can't block sends
	// before the post-Wait drain.
	errs := make(chan error, clients*13)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			sub, err := cli.Subscribe()
			if err != nil {
				errs <- fmt.Errorf("client %d: subscribe: %w", c, err)
				return
			}
			defer sub.Close()
			if n := <-sub.Updates; n != 4 {
				errs <- fmt.Errorf("client %d: initial update %d, want 4", c, n)
				return
			}
			// Pipeline concurrent fetches and renders on one session.
			var inner sync.WaitGroup
			for k := 0; k < 6; k++ {
				inner.Add(1)
				go func(k int) {
					defer inner.Done()
					i := (c + k) % len(reps)
					rep, _, _, err := cli.FetchFrame(i)
					if err != nil {
						errs <- fmt.Errorf("client %d: fetch %d: %w", c, i, err)
						return
					}
					enc := rep.AppendBinary(nil)
					want, _ := store.EncodedFrame(i)
					if !bytes.Equal(enc, want) {
						errs <- fmt.Errorf("client %d: frame %d not bit-identical", c, i)
					}
				}(k)
				inner.Add(1)
				go func() {
					defer inner.Done()
					fb, _, _, err := cli.Render(RenderParams{Frame: 2, Width: 48, Height: 48, ViewDir: vec.New(0.4, 0.3, 1)})
					if err != nil {
						errs <- fmt.Errorf("client %d: render: %w", c, err)
						return
					}
					if !bytes.Equal(render.CompressFramebuffer(fb), wantBlob) {
						errs <- fmt.Errorf("client %d: rendered frame not bit-identical", c)
					}
				}()
			}
			inner.Wait()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServiceCloseUnblocksClients(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	cli := dial(t, srv.Addr())
	if _, _, _, err := cli.FetchFrame(0); err != nil {
		t.Fatal(err)
	}
	sub, err := cli.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	<-sub.Updates
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.Updates {
		}
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription not closed after service shutdown")
	}
	if _, _, _, err := cli.FetchFrame(0); err == nil {
		t.Error("fetch succeeded after service close")
	}
}

// FrameBytes returns the encoded size of frame i (0 out of range).
func (s *MemStore) FrameBytes(i int) int64 {
	if i < 0 || i >= len(s.encoded) {
		return 0
	}
	return int64(len(s.encoded[i]))
}

// Path returns the file backing frame i.
func (s *DirStore) Path(i int) string { return s.paths[i] }
