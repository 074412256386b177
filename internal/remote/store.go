package remote

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/hybrid"
)

// FrameStore is the read side of the service: an ordered collection of
// hybrid frames. Indices run [0, NumFrames()); live stores may have
// evicted old indices, in which case Frame returns an error.
type FrameStore interface {
	NumFrames() int
	Frame(i int) (*hybrid.Representation, error)
}

// The write side of the service is core.FrameSink: a running pipeline
// publishes each extracted frame through StreamOptions.Sink, so
// remote viewers watch the simulation while it computes. LiveRing
// implements it (asserted in core, which sits above this package —
// core places distributed stages on remote workers, so remote must not
// import it back).

// LiveStore extends FrameStore with change notification: Watch
// registers fn to be called with the new frame count after each
// publish, until the returned cancel runs. fn must not block.
type LiveStore interface {
	FrameStore
	Watch(fn func(frames int)) (cancel func())
}

// encodedFrameStore is an optional fast path: stores that hold the
// wire encoding serve Get without re-encoding.
type encodedFrameStore interface {
	EncodedFrame(i int) ([]byte, error)
}

// firstFrameStore is an optional extension reporting the oldest index
// still available (live rings evict).
type firstFrameStore interface {
	FirstFrame() int
}

// ---- MemStore --------------------------------------------------------

// MemStore serves a fixed, fully-resident set of frames — the
// post-hoc setting where extraction already ran. Frames are encoded
// once at construction and served from the encoded cache.
type MemStore struct {
	reps    []*hybrid.Representation
	encoded [][]byte
}

// NewMemStore encodes the given representations eagerly, so no client
// request pays for an encode.
func NewMemStore(frames []*hybrid.Representation) (*MemStore, error) {
	s := &MemStore{
		reps:    append([]*hybrid.Representation(nil), frames...),
		encoded: make([][]byte, len(frames)),
	}
	for i, rep := range s.reps {
		s.encoded[i] = rep.AppendBinary(nil)
	}
	return s, nil
}

// NumFrames implements FrameStore.
func (s *MemStore) NumFrames() int { return len(s.reps) }

// Frame implements FrameStore.
func (s *MemStore) Frame(i int) (*hybrid.Representation, error) {
	if i < 0 || i >= len(s.reps) {
		return nil, fmt.Errorf("remote: no frame %d (store holds %d)", i, len(s.reps))
	}
	return s.reps[i], nil
}

// EncodedFrame returns the cached wire encoding of frame i.
func (s *MemStore) EncodedFrame(i int) ([]byte, error) {
	if i < 0 || i >= len(s.encoded) {
		return nil, fmt.Errorf("remote: no frame %d (store holds %d)", i, len(s.encoded))
	}
	return s.encoded[i], nil
}

// ---- DirStore --------------------------------------------------------

// DirStore serves the .achy hybrid-frame files of a directory in
// lexical order — the paper's batch workflow, where the extraction
// program leaves one file per time step on shared disk. Files are
// already in wire encoding, so Get sends a file's bytes as they are;
// only server-side Render pays a decode. Both forms sit behind a window
// of the frames asked for last, filled once however many ask at once:
// files are immutable once listed (writers rename into place).
type DirStore struct {
	paths   []string
	encoded *blobCache[int, []byte]
	decoded *blobCache[int, *hybrid.Representation]
}

// maxDecodedFrames bounds each of DirStore's windows: enough to absorb
// a few clients rendering — or scrubbing — the same recent frames,
// small enough that a client scrubbing a long run can't grow server
// memory without bound (frames are ~100MB at paper scale).
const maxDecodedFrames = 4

// NewDirStore scans dir for *.achy files. Structurally incomplete
// files — the partial leftovers of a writer killed mid-frame (current
// writers rename atomically, but copies and older producers don't) —
// and files of another format version are skipped rather than served:
// such a frame would fail every Get, and List/Frame indices must name
// frames that actually decode. When every file is skipped, the error
// names the first and why (hybrid.FileComplete).
func NewDirStore(dir string) (*DirStore, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.achy"))
	if err != nil {
		return nil, fmt.Errorf("remote: scanning %s: %w", dir, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("remote: no .achy frames in %s", dir)
	}
	complete := paths[:0]
	var skipped error // the first file refused, and why
	for _, p := range paths {
		if err := hybrid.FileComplete(p); err == nil {
			complete = append(complete, p)
		} else if skipped == nil {
			skipped = fmt.Errorf("%s: %w", filepath.Base(p), err)
		}
	}
	if len(complete) == 0 {
		return nil, fmt.Errorf("remote: no complete .achy frames in %s (%d skipped, first %v)", dir, len(paths), skipped)
	}
	sort.Strings(complete)
	return &DirStore{
		paths:   complete,
		encoded: newBlobCache[int, []byte](maxDecodedFrames),
		decoded: newBlobCache[int, *hybrid.Representation](maxDecodedFrames),
	}, nil
}

// NumFrames implements FrameStore.
func (s *DirStore) NumFrames() int { return len(s.paths) }

// Frame implements FrameStore, through the decoded window.
func (s *DirStore) Frame(i int) (*hybrid.Representation, error) {
	if i < 0 || i >= len(s.paths) {
		return nil, fmt.Errorf("remote: no frame %d (directory holds %d)", i, len(s.paths))
	}
	rep, _, err := s.decoded.get(i, func() (*hybrid.Representation, error) { return hybrid.ReadFile(s.paths[i]) })
	return rep, err
}

// EncodedFrame returns frame i's file through the encoded window: the
// base of a scrub step's delta is the frame the step before read, so a
// step reads one file, not two. The bytes are shared between callers
// and read-only; Service only ever writes them to a socket.
func (s *DirStore) EncodedFrame(i int) ([]byte, error) {
	if i < 0 || i >= len(s.paths) {
		return nil, fmt.Errorf("remote: no frame %d (directory holds %d)", i, len(s.paths))
	}
	enc, _, err := s.encoded.get(i, func() ([]byte, error) { return os.ReadFile(s.paths[i]) })
	return enc, err
}

// ---- LiveRing --------------------------------------------------------

// LiveRing is the in-situ store: a bounded, latest-wins ring that a
// running pipeline publishes into (it implements FrameSink) while the
// service reads from it (FrameStore + LiveStore). Publish never blocks
// on consumers — the oldest frame is simply evicted — so a slow remote
// client can never backpressure the simulation; it just sees the
// latest frames the ring still holds.
type LiveRing struct {
	mu       sync.Mutex
	cap      int
	frames   []liveFrame // most recent min(cap, total) frames, oldest first
	total    int         // frames published so far
	watchers map[int]func(int)
	nextW    int
}

type liveFrame struct {
	index   int
	rep     *hybrid.Representation
	encoded []byte
}

// NewLiveRing returns a ring retaining the most recent capacity frames.
func NewLiveRing(capacity int) (*LiveRing, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("remote: live ring capacity %d must be >= 1", capacity)
	}
	return &LiveRing{cap: capacity, watchers: make(map[int]func(int))}, nil
}

// Publish implements FrameSink: encode once, append, evict the oldest
// beyond capacity, and notify watchers. Frames must arrive in index
// order (the pipeline's publish stage guarantees it).
func (r *LiveRing) Publish(index int, rep *hybrid.Representation) error {
	enc := rep.AppendBinary(nil)
	r.mu.Lock()
	if index != r.total {
		r.mu.Unlock()
		return fmt.Errorf("remote: live frame %d out of order (expected %d)", index, r.total)
	}
	r.frames = append(r.frames, liveFrame{index: index, rep: rep, encoded: enc})
	if len(r.frames) > r.cap {
		r.frames[0] = liveFrame{} // release the evicted frame's memory
		r.frames = r.frames[1:]
	}
	r.total++
	total := r.total
	fns := make([]func(int), 0, len(r.watchers))
	for _, fn := range r.watchers {
		fns = append(fns, fn)
	}
	r.mu.Unlock()
	for _, fn := range fns {
		fn(total)
	}
	return nil
}

// NumFrames implements FrameStore: the count of frames published so
// far (not all still resident).
func (r *LiveRing) NumFrames() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// FirstFrame returns the oldest index still resident.
func (r *LiveRing) FirstFrame() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - len(r.frames)
}

// frame locates index i under the lock.
func (r *LiveRing) frame(i int) (liveFrame, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.total - len(r.frames)
	if i < 0 || i >= r.total {
		return liveFrame{}, fmt.Errorf("remote: no frame %d (published %d)", i, r.total)
	}
	if i < first {
		return liveFrame{}, fmt.Errorf("remote: frame %d evicted (ring holds [%d,%d))", i, first, r.total)
	}
	return r.frames[i-first], nil
}

// Frame implements FrameStore.
func (r *LiveRing) Frame(i int) (*hybrid.Representation, error) {
	f, err := r.frame(i)
	if err != nil {
		return nil, err
	}
	return f.rep, nil
}

// EncodedFrame serves the encoding captured at publish time.
func (r *LiveRing) EncodedFrame(i int) ([]byte, error) {
	f, err := r.frame(i)
	if err != nil {
		return nil, err
	}
	return f.encoded, nil
}

// Watch implements LiveStore.
func (r *LiveRing) Watch(fn func(frames int)) (cancel func()) {
	r.mu.Lock()
	id := r.nextW
	r.nextW++
	r.watchers[id] = fn
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.watchers, id)
		r.mu.Unlock()
	}
}

// listInfo summarizes any store for the List response.
func listInfo(s FrameStore) ListInfo {
	li := ListInfo{Frames: s.NumFrames()}
	if fs, ok := s.(firstFrameStore); ok {
		li.First = fs.FirstFrame()
	}
	_, li.Live = s.(LiveStore)
	return li
}
