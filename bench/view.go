package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/remote"
	"repro/internal/render"
	"repro/internal/vec"
)

const viewers = 2

// viewWorkload is view_fetch and, with thin set, view_render: two
// viewers against one remote.Service over a DirStore of .achy frames,
// one request in flight each.
//
// view_fetch is the fat-client mode. A session is List, a scrub by
// chained FetchFrameDelta (viewer 0 forward, viewer 1 backward, so the
// two never share a delta-cache key and the service's counts do not
// depend on how the viewers interleave), then seeded random seeks by
// FetchFrame. The store holds more frames than any service cache. The
// work is store reads, framing, CRC, delta and hybrid decode, socket
// copies and allocation; nothing renders.
//
// view_render is the thin-client mode on the same store: each viewer
// orbits the camera in unique seeded steps (no render-cache hit by
// construction), four views per frame and then the next frame (the
// DirStore's decode cache misses once per frame), every fourth request
// at QualityPreview. Server-side volren+render and the framebuffer
// codecs dominate and the bytes are tens of times fewer, so a codec or
// ray-cast change moves this workload and must not move view_fetch.
type viewWorkload struct {
	sz   sizes
	seed int64
	dir  string
	thin bool

	svc     *remote.Service
	fileCRC []uint32 // CRC of each .achy file, taken at set-up
	wire    *wireCount

	mu      sync.Mutex
	samples []viewSample // kept for the untimed verify pass and the probes
}

// viewSample is one request kept for after the session: every eighth
// picture of view_render (with its parameters), a few encodings of
// view_fetch.
type viewSample struct {
	params remote.RenderParams
	fb     *render.Framebuffer
	enc    []byte // view_fetch: the frame's wire encoding
	base   []byte // view_fetch: the encoding of the delta's base
	wire   int64  // bytes the reply carried
}

func (w *viewWorkload) setup() error {
	p := core.NewParticlePipeline(w.sz.viewN)
	p.Sim.Seed = w.seed
	p.Axes = [3]beam.Axis{beam.AxisX, beam.AxisPX, beam.AxisY}
	p.Extract.VolumeRes = w.sz.viewVolume
	sim, err := p.NewSim()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	for k := 0; k < w.sz.viewFrames; k++ {
		sim.RunPeriods(1)
		rep, err := p.ProcessFrame(sim.Snapshot())
		if err != nil {
			return err
		}
		path := filepath.Join(w.dir, fmt.Sprintf("frame_%04d.achy", k))
		if err := rep.WriteFile(path); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		w.fileCRC = append(w.fileCRC, crc32.ChecksumIEEE(data))
	}
	store, err := remote.NewDirStore(w.dir)
	if err != nil {
		return err
	}
	w.svc, err = remote.NewService("127.0.0.1:0", store)
	return err
}

func (w *viewWorkload) close() {
	if w.svc != nil {
		w.svc.Close()
	}
	os.RemoveAll(w.dir)
}

func (w *viewWorkload) describe() map[string]any {
	d := map[string]any{"particles": w.sz.viewN, "frames": w.sz.viewFrames, "volume": w.sz.viewVolume, "viewers": viewers, "in_flight_per_viewer": 1}
	if w.thin {
		d["image"] = w.sz.viewImage
		d["requests_per_viewer_per_session"] = w.sz.renderReqs
	} else {
		d["requests_per_viewer_per_session"] = 1 + w.sz.fetchScrub + w.sz.fetchSeeks
	}
	return d
}

// dial opens one viewer's counted connection. Heartbeats are off so
// that the byte counts hold nothing but the requests.
func (w *viewWorkload) dial() (*remote.Client, error) {
	conn, err := w.wire.dial(w.svc.Addr())
	if err != nil {
		return nil, err
	}
	return remote.NewClientConn(conn, remote.ClientOptions{HeartbeatInterval: -1})
}

// session runs both viewers to the end of their request lists.
func (w *viewWorkload) session(i int, rec *recorder, tr *tracer) {
	var wg sync.WaitGroup
	for v := 0; v < viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.seed<<20 + int64(i)<<4 + int64(v)))
			root := tr.root("bench.viewer", i, v)
			defer tr.end(root)
			n, run := 1+w.sz.fetchScrub+w.sz.fetchSeeks, w.fetchViewer
			if w.thin {
				n, run = w.sz.renderReqs, w.renderViewer
			}
			start := time.Now()
			sp := tr.begin("remote.dial", root)
			cli, err := w.dial()
			tr.end(sp)
			if err != nil {
				rec.lost(n, "dial: %v", err)
				return
			}
			defer cli.Close()
			run(i, v, rng, cli, start, rec, tr, root)
		}(v)
	}
	wg.Wait()
}

// fetchViewer is one fat-client session. Latency runs from the call to
// the decoded *hybrid.Representation in hand; the check re-encodes the
// representation (into a buffer the viewer reuses, after the latency is
// taken) and holds its CRC to the .achy file's.
func (w *viewWorkload) fetchViewer(i, v int, rng *rand.Rand, cli *remote.Client, start time.Time, rec *recorder, tr *tracer, root spanID) {
	frames := w.sz.viewFrames
	total := 1 + w.sz.fetchScrub + w.sz.fetchSeeks
	done := 0
	var scratch []byte
	got := func(frame int, rep *hybrid.Representation, t0 time.Time, err error) bool {
		if err != nil {
			rec.lost(total-done, "viewer %d frame %d: %v", v, frame, err)
			return false
		}
		now := time.Now()
		if done == 0 {
			rec.firstFrame(now.Sub(start))
		}
		rec.frame(now.Sub(t0))
		done++
		sp := tr.begin("bench.check", root)
		scratch = rep.AppendBinary(scratch[:0])
		crc := crc32.ChecksumIEEE(scratch)
		tr.end(sp)
		if crc != w.fileCRC[frame] {
			rec.rejected(1, "viewer %d frame %d: fetched %08x, file %08x", v, frame, crc, w.fileCRC[frame])
		}
		return true
	}

	sp := tr.begin("remote.list", root)
	li, err := cli.List()
	tr.end(sp)
	if err != nil || li.Frames != frames {
		rec.lost(total, "viewer %d list: %d frames, %v", v, li.Frames, err)
		return
	}

	// Scrub: the first fetch has no base and seeds the chain.
	step := 1 - 2*v // viewer 0 forward, viewer 1 backward
	frame, base := rng.Intn(frames), -1
	var enc []byte
	for k := 0; k <= w.sz.fetchScrub; k++ {
		name := "remote.getdelta"
		if base < 0 {
			name = "remote.get"
		}
		t0 := time.Now()
		sp := tr.begin(name, root)
		rep, next, wire, _, err := cli.FetchFrameDelta(frame, base, enc)
		tr.end(sp)
		if !got(frame, rep, t0, err) {
			return
		}
		if tr != nil && k%4 == 1 {
			w.keep(viewSample{enc: next, base: enc, wire: wire})
		}
		enc, base = next, frame
		frame = (frame + step + frames) % frames
	}
	for k := 0; k < w.sz.fetchSeeks; k++ {
		frame := rng.Intn(frames)
		t0 := time.Now()
		sp := tr.begin("remote.get", root)
		rep, _, _, err := cli.FetchFrame(frame)
		tr.end(sp)
		if !got(frame, rep, t0, err) {
			return
		}
	}
}

// renderViewer is one thin-client session. Latency runs from the call
// to the decoded framebuffer in hand. Every eighth request of a viewer
// (lossless) and every thirty-second plus three (a preview) is kept for
// the verify pass; the traced session keeps every fourth of each for
// the probes.
func (w *viewWorkload) renderViewer(i, v int, rng *rand.Rand, cli *remote.Client, start time.Time, rec *recorder, tr *tracer, root spanID) {
	frames := w.sz.viewFrames
	total := w.sz.renderReqs
	// The two viewers walk the store half a store apart, four views a
	// frame, each session picking up where the last one stopped.
	first := (i*total/4 + v*frames/2) % frames
	for k := 0; k < total; k++ {
		angle := 2 * math.Pi * rng.Float64()
		p := remote.RenderParams{
			Frame: (first + k/4) % frames,
			Width: w.sz.viewImage, Height: w.sz.viewImage,
			ViewDir: vec.New(math.Cos(angle), 0.3+0.4*rng.Float64(), math.Sin(angle)),
		}
		name := "remote.render"
		if k%4 == 3 {
			p.Quality = remote.QualityPreview
			name = "remote.render_preview"
		}
		t0 := time.Now()
		sp := tr.begin(name, root)
		fb, wire, _, err := cli.Render(p)
		tr.end(sp)
		if err != nil {
			rec.lost(total-k, "viewer %d render frame %d: %v", v, p.Frame, err)
			return
		}
		now := time.Now()
		if k == 0 {
			rec.firstFrame(now.Sub(start))
		}
		rec.frame(now.Sub(t0))
		g := i*total + k
		if g%8 == 0 || g%32 == 3 || tr != nil && (k%4 == 0 || k%4 == 3) {
			w.keep(viewSample{params: p, fb: fb, wire: wire})
		}
	}
}

func (w *viewWorkload) keep(s viewSample) {
	w.mu.Lock()
	w.samples = append(w.samples, s)
	w.mu.Unlock()
}

// finish is view_render's untimed verify pass: each kept lossless
// picture must equal a local core.RenderFrame of the same frame and
// view bit for bit, each kept preview must be within one quantizer step
// of it. view_fetch checked every frame as it arrived.
func (w *viewWorkload) finish(rec *recorder) error {
	_, err := w.verifyPictures(nil, rec)
	return err
}

// verifyPictures renders each kept sample locally (a volren.still probe
// span when traced) and checks the served picture against it. The
// local renders run as many at a time as there are viewers, so that a
// probe shares the cores as the served render did. It returns the local
// pictures for the codec probes.
func (w *viewWorkload) verifyPictures(tr *tracer, rec *recorder) ([]*render.Framebuffer, error) {
	if !w.thin {
		return nil, nil
	}
	local, err := remote.NewDirStore(w.dir)
	if err != nil {
		return nil, err
	}
	out := make([]*render.Framebuffer, len(w.samples))
	errs := make([]error, viewers)
	var wg sync.WaitGroup
	for v := 0; v < viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for k := v; k < len(w.samples) && errs[v] == nil; k += viewers {
				out[k], errs[v] = w.verifyPicture(tr, rec, local, k)
			}
		}(v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *viewWorkload) verifyPicture(tr *tracer, rec *recorder, local *remote.DirStore, k int) (*render.Framebuffer, error) {
	s := w.samples[k]
	rep, err := local.Frame(s.params.Frame)
	if err != nil {
		return nil, err
	}
	tf, err := core.DefaultTF(rep)
	if err != nil {
		return nil, err
	}
	sp := tr.probe("volren.still", k)
	fb, _, _, err := core.RenderFrame(rep, tf, s.params.Width, s.params.Height, s.params.ViewDir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if s.params.Quality == remote.QualityLossless {
		if got, want := fbCRC(s.fb), fbCRC(fb); got != want {
			rec.rejected(1, "render frame %d: served %08x, local RenderFrame %08x", s.params.Frame, got, want)
		}
	} else if d := previewError(s.fb, fb); d > 1.0/255+1e-6 {
		rec.rejected(1, "preview frame %d: %.4f from the local picture, more than one quantizer step", s.params.Frame, d)
	}
	return fb, nil
}

// previewError is the largest distance of a preview's color channel
// from the exact picture's, clamped to [0,1] as the quantizer clamps.
func previewError(preview, exact *render.Framebuffer) float64 {
	worst := 0.0
	for i, q := range preview.Color {
		e := math.Min(1, math.Max(0, float64(exact.Color[i])))
		worst = math.Max(worst, math.Abs(float64(q)-e))
	}
	return worst
}

// traced runs one session with a span around each client call, then
// the probes on what it kept.
func (w *viewWorkload) traced(i int, tr *tracer, ref *recorder, m metrics) error {
	w.samples = nil
	before := w.svc.Stats()
	rec := &recorder{}
	start := time.Now()
	w.session(i, rec, tr)
	rec.wall = time.Since(start)
	after := w.svc.Stats()

	m["trace.overhead_share"] = traceOverhead(ref, rec)
	share := func(useful, wasted uint64) float64 {
		if useful+wasted == 0 {
			return 0
		}
		return float64(useful) / float64(useful+wasted)
	}
	m["remote.service.frame_encodes"] = float64(after.FrameEncodes - before.FrameEncodes)
	m["remote.service.delta_encodes"] = float64(after.DeltaEncodes - before.DeltaEncodes)
	m["remote.service.delta_hit_share"] = share(after.DeltaHits-before.DeltaHits, after.DeltaEncodes-before.DeltaEncodes)
	m["remote.service.renders"] = float64(after.Renders - before.Renders)
	m["remote.service.render_hit_share"] = share(after.RenderHits-before.RenderHits, after.Renders-before.Renders)

	ref.absorb(rec)
	if err := w.probeService(tr, m); err != nil {
		return err
	}
	if w.thin {
		return w.probeRender(tr, ref, m)
	}
	return w.probeFetch(tr, m)
}

// probeService times the round trip and the store under the service.
func (w *viewWorkload) probeService(tr *tracer, m metrics) error {
	cli, err := w.dial()
	if err != nil {
		return err
	}
	defer cli.Close()
	pings := make([]float64, 200)
	for k := range pings {
		d, err := cli.Ping()
		if err != nil {
			return err
		}
		pings[k] = float64(d) / float64(time.Microsecond)
	}
	m["remote.ping_us"] = median(pings)

	store, err := remote.NewDirStore(w.dir)
	if err != nil {
		return err
	}
	for k := 0; k < w.sz.viewFrames; k++ {
		sp := tr.probe("remote.store.read", k)
		_, err := store.EncodedFrame(k)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.probe("remote.store.decode", k) // each index once: never cached
		_, err = store.Frame(k)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	m["remote.store.read_ms"] = tr.frameMs("remote.store.read")
	m["remote.store.decode_ms"] = tr.frameMs("remote.store.decode")
	return nil
}

func (w *viewWorkload) probeFetch(tr *tracer, m metrics) error {
	var decoded float64
	for k, s := range w.samples {
		sp := tr.probe("hybrid.decode", k)
		_, err := hybrid.DecodeBinary(s.enc)
		tr.end(sp)
		if err != nil {
			return err
		}
		decoded += float64(len(s.enc))
		delta := render.CompressDelta(s.enc, s.base)
		sp = tr.probe("render.delta_decode", k)
		_, err = render.DecompressDelta(delta, s.base)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	m["hybrid.decode_ms"] = tr.frameMs("hybrid.decode")
	m["hybrid.decode_mb_per_s"] = perSecond(decoded/1e6, tr.totalMs("hybrid.decode"))
	m["render.delta_decode_ms"] = tr.frameMs("render.delta_decode")
	m["remote.get_ms"] = tr.totalMs("remote.get") / float64(tr.count("remote.get"))
	m["remote.getdelta_ms"] = tr.totalMs("remote.getdelta") / float64(tr.count("remote.getdelta"))
	var full, resid float64
	for _, s := range w.samples {
		full += float64(len(s.enc))
		resid += float64(s.wire)
	}
	m["remote.get_bytes"] = full / float64(len(w.samples))
	m["remote.getdelta_bytes"] = resid / float64(len(w.samples))
	return nil
}

func (w *viewWorkload) probeRender(tr *tracer, rec *recorder, m metrics) error {
	local, err := w.verifyPictures(tr, rec)
	if err != nil {
		return err
	}
	px := float64(w.sz.viewImage * w.sz.viewImage)
	var rleB, quantB, lossless, preview, nl, np float64
	for k, fb := range local {
		sp := tr.probe("render.rle_encode", k)
		rle := render.CompressFramebuffer(fb)
		tr.end(sp)
		sp = tr.probe("render.rle_decode", k)
		_, err := render.DecompressFramebuffer(rle)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.probe("render.quant_encode", k)
		quant := render.CompressFramebufferQuantized(fb)
		tr.end(sp)
		sp = tr.probe("render.quant_decode", k)
		_, err = render.DecompressFramebufferQuantized(quant)
		tr.end(sp)
		if err != nil {
			return err
		}
		rleB += float64(len(rle))
		quantB += float64(len(quant))
		if s := w.samples[k]; s.params.Quality == remote.QualityPreview {
			preview += float64(s.wire)
			np++
		} else {
			lossless += float64(s.wire)
			nl++
		}
	}
	n := float64(len(local))
	for _, name := range []string{"rle_encode", "rle_decode", "quant_encode", "quant_decode"} {
		m["render."+name+"_ms"] = tr.frameMs("render." + name)
	}
	m["render.rle_bytes_per_px"] = rleB / n / px
	m["render.quant_bytes_per_px"] = quantB / n / px
	m["remote.render_bytes_lossless"] = lossless / nl
	m["remote.render_bytes_preview"] = preview / np
	renders := float64(tr.count("remote.render") + tr.count("remote.render_preview"))
	m["remote.render_ms"] = (tr.totalMs("remote.render") + tr.totalMs("remote.render_preview")) / renders
	m["volren.still_ms"] = tr.frameMs("volren.still")
	m["remote.render_overhead_ms"] = m["remote.render_ms"] - m["volren.still_ms"]
	return nil
}
