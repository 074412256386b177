package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/render"
)

// sizes fixes how much work a workload does. fullSizes is what the
// benchmark measures; smokeSizes is what the unit test and the
// calibration pass of a traced run use. There is no flag for them: a
// number is comparable only with a number taken at the same size.
type sizes struct {
	// beam_stream and fleet_stream
	beamN       int // particles per frame
	beamFiles   int // distinct .acpf files, one lattice period apart
	beamSession int // frames per session, cycling over the files
	beamImage   int // framebuffer side
	beamVolume  int // hybrid volume resolution per axis
	fleetParts  int // render partitions per frame on the fleet

	// field_stream
	fieldCells   int // cavity lattice cells per radius
	fieldLines   int
	fieldSession int
	fieldImage   int

	// view_fetch and view_render share one store
	viewN      int
	viewFrames int // > every service cache (frame 8, delta 16) at full size
	viewImage  int
	viewVolume int
	fetchScrub int // chained delta fetches per viewer per session
	fetchSeeks int // random full fetches per viewer per session
	renderReqs int // render requests per viewer per session

	// insitu_live
	liveN       int
	liveSession int
	liveVolume  int

	// refSamples is how many latency samples the untraced reference
	// sessions of a traced run collect before the traced session.
	refSamples int
}

// The full sizes are the issue's starting sizes scaled to the
// contract's time cap (see README.md, "Sizes"): a run measures for
// fifteen seconds and every workload must collect a hundred latency
// samples in it, so the particle counts and picture sizes are about a
// third of the issue's, chosen to keep each layer's share of the frame.
var fullSizes = sizes{
	beamN: 200_000, beamFiles: 8, beamSession: 16, beamImage: 160, beamVolume: 64, fleetParts: 4,
	fieldCells: 16, fieldLines: 1000, fieldSession: 16, fieldImage: 384,
	viewN: 60_000, viewFrames: 20, viewImage: 192, viewVolume: 64,
	fetchScrub: 15, fetchSeeks: 5, renderReqs: 12,
	liveN: 100_000, liveSession: 16, liveVolume: 64,
	refSamples: 100,
}

var smokeSizes = sizes{
	beamN: 4000, beamFiles: 2, beamSession: 2, beamImage: 64, beamVolume: 8, fleetParts: 2,
	fieldCells: 6, fieldLines: 40, fieldSession: 2, fieldImage: 64,
	viewN: 3000, viewFrames: 3, viewImage: 64, viewVolume: 8,
	fetchScrub: 2, fetchSeeks: 1, renderReqs: 8,
	liveN: 3000, liveSession: 2, liveVolume: 8,
}

// workload is one closed loop. setup is everything a user pays before
// the first session: data generation, files, servers, dials that
// outlive a session. session runs one stream start→drain or one
// dial→scrub→close and records into rec; with a tracer it also records
// spans around each client call (viewers, insitu_live). finish runs the
// untimed checks after the timed sessions. traced produces the
// per-layer metrics: a serial replay for the stream workloads, a traced
// session (numbered i) for the others, then the probes.
type workload interface {
	setup() error
	session(i int, rec *recorder, tr *tracer)
	finish(rec *recorder) error
	traced(i int, tr *tracer, ref *recorder, m metrics) error
	describe() map[string]any
	close()
}

// newWorkload builds a workload that keeps its files under dir and
// dials its client-side sockets through wire, which the runner reads
// for bytes_per_frame.
func newWorkload(name string, seed int64, sz sizes, dir string, wire *wireCount) (workload, error) {
	switch name {
	case beamStream:
		return &beamWorkload{sz: sz, seed: seed, dir: dir, wire: wire}, nil
	case fleetStream:
		return &beamWorkload{sz: sz, seed: seed, dir: dir, wire: wire, fleet: true}, nil
	case fieldStream:
		return &fieldWorkload{sz: sz, seed: seed}, nil
	case viewFetch:
		return &viewWorkload{sz: sz, seed: seed, dir: dir, wire: wire}, nil
	case viewRender:
		return &viewWorkload{sz: sz, seed: seed, dir: dir, wire: wire, thin: true}, nil
	case insituLive:
		return &liveWorkload{sz: sz, seed: seed, wire: wire}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// recorder accumulates what the sessions of one run saw. Viewers record
// concurrently.
type recorder struct {
	mu        sync.Mutex
	frames    int       // frames or pictures in hand
	attempted int       // frames asked for
	failed    int       // errored, timed out or failed their check
	lat       []float64 // ms, one per frame
	first     []float64 // ms, one per session and viewer
	notes     []string  // first few failure messages

	// pictures counts the streamed pictures by (input, CRC) so that the
	// stream workloads can compare them with the serial replay after
	// timing; localBytes is the mean size of a frame's product for the
	// workloads without sockets. wall is set by the runner.
	pictures   map[[2]uint32]int
	localBytes float64
	wall       time.Duration
}

// picture counts one streamed picture of the given input.
func (r *recorder) picture(input int, crc uint32) {
	if r.pictures == nil {
		r.pictures = map[[2]uint32]int{}
	}
	r.pictures[[2]uint32{uint32(input), crc}]++
}

// checkPictures rejects every streamed picture whose CRC differs from
// the serial replay of the same input.
func (r *recorder) checkPictures(refs []uint32) {
	for key, n := range r.pictures {
		if key[1] != refs[key[0]] {
			r.rejected(n, "input %d: streamed picture %08x, serial replay %08x", key[0], key[1], refs[key[0]])
		}
	}
}

// frame counts one frame in hand and its latency.
func (r *recorder) frame(latency time.Duration) {
	r.count(1)
	r.sample(latency)
}

// count counts n frames in hand; sample adds a latency. insitu_live
// uses them apart: its frames are the stream's, its latencies the
// subscribers'.
func (r *recorder) count(n int) {
	r.mu.Lock()
	r.frames += n
	r.attempted += n
	r.mu.Unlock()
}

func (r *recorder) sample(latency time.Duration) {
	r.mu.Lock()
	r.lat = append(r.lat, ms(latency))
	r.mu.Unlock()
}

func (r *recorder) firstFrame(d time.Duration) {
	r.mu.Lock()
	r.first = append(r.first, ms(d))
	r.mu.Unlock()
}

// lost counts n frames that were asked for and never arrived.
func (r *recorder) lost(n int, format string, args ...any) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
	r.note(n, format, args...)
}

// rejected counts n frames that arrived and failed their check.
func (r *recorder) rejected(n int, format string, args ...any) {
	r.mu.Lock()
	r.frames -= n
	r.mu.Unlock()
	r.note(n, format, args...)
}

func (r *recorder) note(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	if n > 0 && len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// absorb adds another recorder's frame counts, as when a traced session
// follows the untraced reference sessions.
func (r *recorder) absorb(o *recorder) {
	r.frames += o.frames
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
}

// traceOverhead is what tracing costs a closed loop: the traced
// session's seconds per frame over the untraced reference sessions',
// less one.
func traceOverhead(ref, traced *recorder) float64 {
	if ref.frames <= 0 || traced.frames <= 0 {
		return 0
	}
	untraced := ref.wall.Seconds() / float64(ref.frames)
	return (traced.wall.Seconds()/float64(traced.frames) - untraced) / untraced
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics. vs need not be sorted; it is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// procSnap is the process-wide counters the per-frame costs are deltas
// of. The servers are in-process, so these cover both sides.
type procSnap struct {
	mallocs, allocBytes uint64
	cpu                 time.Duration
	gcCycles            uint32
	gcPause             time.Duration
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procSnap{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, cpu: tv(ru.Utime) + tv(ru.Stime),
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, _ := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			return kb / 1024
		}
	}
	return 0
}

// wireCount totals the bytes read and written on the client side of
// every socket a workload opens.
type wireCount struct{ read, written atomic.Int64 }

func (c *wireCount) total() int64 { return c.read.Load() + c.written.Load() }

// dial is a TCP dialer whose connections count into c. It is the Dial
// seam of remote.FleetOptions, and the viewers hand its connections to
// remote.NewClientConn.
func (c *wireCount) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c *wireCount
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.read.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.written.Add(int64(n))
	return n, err
}

// fbCRC is the check value of a picture: a CRC-32 over the bits of the
// color and depth planes.
func fbCRC(fb *render.Framebuffer) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, floatBytes(fb.Color))
	return crc32.Update(crc, crc32.IEEETable, floatBytes(fb.Depth))
}

// floatBytes views a float32 slice as its bytes without copying.
func floatBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f))
}

// perSecond is count/duration, 0 when nothing was timed.
func perSecond(count float64, totalMs float64) float64 {
	if totalMs <= 0 {
		return 0
	}
	return count / (totalMs / 1e3)
}
