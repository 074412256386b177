package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/remote"
)

// liveWorkload is insitu_live: a live beam simulation streams through
// StreamFrames into a remote.LiveRing (capacity 8) that a Service
// serves to two subscribers with inline frames, each decoding every
// push. It is the write side beside view_fetch's read side: the ring,
// the encode-once broadcast and the per-subscriber send queues, with
// beam.Sim as the producer. A serving change that backpressures the
// simulation lowers frames_per_s here; one that delays the picture
// raises the latency, which runs from the sink's publish stamp to the
// decoded frame in a subscriber's hands.
//
// The simulation, the service and the subscriptions are set up once and
// live across sessions, as a running job's do; a session is the next
// liveSession frames of the run.
type liveWorkload struct {
	sz   sizes
	seed int64

	pipe *core.ParticlePipeline
	sim  *beam.Sim
	ring *remote.LiveRing
	svc  *remote.Service
	wire *wireCount
	clis []*remote.Client
	subs sync.WaitGroup

	mu        sync.Mutex
	delivered []delivery
	arrived   chan struct{} // a delivery was appended; capacity 1, sends never block
}

// delivery is one decoded push in a subscriber's hands.
type delivery struct {
	sub, index int
	got, at    time.Time // push received, frame decoded
	crc        uint32    // of the pushed payload
	bytes      int
	err        error
}

const liveRingFrames = 8

func (w *liveWorkload) setup() error {
	p := core.NewParticlePipeline(w.sz.liveN)
	p.Sim.Seed = w.seed
	p.Axes = [3]beam.Axis{beam.AxisX, beam.AxisPX, beam.AxisY}
	p.Extract.VolumeRes = w.sz.liveVolume
	w.pipe = p
	w.arrived = make(chan struct{}, 1)
	var err error
	if w.sim, err = p.NewSim(); err != nil {
		return err
	}
	if w.ring, err = remote.NewLiveRing(liveRingFrames); err != nil {
		return err
	}
	if w.svc, err = remote.NewService("127.0.0.1:0", w.ring); err != nil {
		return err
	}
	for v := 0; v < viewers; v++ {
		conn, err := w.wire.dial(w.svc.Addr())
		if err != nil {
			return err
		}
		cli, err := remote.NewClientConn(conn, remote.ClientOptions{HeartbeatInterval: -1})
		if err != nil {
			return err
		}
		w.clis = append(w.clis, cli)
		sub, err := cli.SubscribeWith(remote.SubscribeOptions{InlineFrames: true})
		if err != nil {
			return err
		}
		w.subs.Add(1)
		go w.subscriber(v, sub)
	}
	return nil
}

// subscriber decodes every push until the connection closes.
func (w *liveWorkload) subscriber(v int, sub *remote.Subscription) {
	defer w.subs.Done()
	for u := range sub.Frames {
		got := time.Now()
		_, err := u.Decode()
		d := delivery{sub: v, index: u.Index, got: got, at: time.Now(), bytes: len(u.Payload), err: err}
		d.crc = crc32.ChecksumIEEE(u.Payload)
		w.mu.Lock()
		w.delivered = append(w.delivered, d)
		w.mu.Unlock()
		select {
		case w.arrived <- struct{}{}:
		default:
		}
	}
}

func (w *liveWorkload) close() {
	for _, cli := range w.clis {
		cli.Close()
	}
	w.subs.Wait()
	if w.svc != nil {
		w.svc.Close()
	}
}

func (w *liveWorkload) describe() map[string]any {
	return map[string]any{
		"particles": w.sz.liveN, "frames_per_session": w.sz.liveSession, "periods_per_frame": 1,
		"volume": w.sz.liveVolume, "ring": liveRingFrames, "subscribers": viewers, "inline_frames": true,
	}
}

// stampSink is the stream's FrameSink: it stamps each publish, keeps
// the published representation for the check, and shifts the stream's
// indices (which start at 0 every session) to the ring's running count.
type stampSink struct {
	ring   *remote.LiveRing
	base   int
	stamps []time.Time
	reps   []*hybrid.Representation
	tr     *tracer
}

func (s *stampSink) Publish(index int, rep *hybrid.Representation) error {
	s.reps[index] = rep
	sp := s.tr.root("remote.publish", s.base+index, 1)
	s.stamps[index] = time.Now()
	err := s.ring.Publish(s.base+index, rep)
	s.tr.end(sp)
	return err
}

// session streams the next liveSession frames of the run and waits for
// the last one to reach both subscribers. Every delivered payload must
// be the wire encoding of the representation the sink published at that
// index; latest-wins delivery may skip frames, which is not a failure.
func (w *liveWorkload) session(_ int, rec *recorder, tr *tracer) {
	n := w.sz.liveSession
	sink := &stampSink{ring: w.ring, base: w.ring.NumFrames(), stamps: make([]time.Time, n), reps: make([]*hybrid.Representation, n), tr: tr}
	w.mu.Lock()
	w.delivered = w.delivered[:0]
	w.mu.Unlock()

	src := core.SimSource(w.sim, n, 1)
	if tr != nil {
		src = w.tracedSource(tr, sink.base, n)
	}
	start := time.Now()
	s := w.pipe.StreamFrames(context.Background(), src, core.StreamOptions{PartitionWorkers: 1, ExtractWorkers: 1, Buffer: 2, Sink: sink})
	if err := s.Wait(); err != nil { // Wait drains Out
		rec.lost(n, "stream: %v", err)
		return
	}

	last := sink.base + n - 1
	delivered, reached := w.awaitFrame(last, 5*time.Second)
	if reached < viewers {
		rec.lost(n, "frame %d reached %d of %d subscribers", last, reached, viewers)
		return
	}
	want := make([]uint32, n)
	var scratch []byte
	for j, rep := range sink.reps {
		scratch = rep.AppendBinary(scratch[:0])
		want[j] = crc32.ChecksumIEEE(scratch)
	}
	bad := 0
	first := time.Time{}
	for _, d := range delivered {
		j := d.index - sink.base
		if j < 0 || j >= n || d.err != nil || d.crc != want[j] {
			bad++
			continue
		}
		if first.IsZero() || d.at.Before(first) {
			first = d.at
		}
		rec.sample(d.at.Sub(sink.stamps[j]))
		tr.record("remote.push", d.index, 2+d.sub, sink.stamps[j], d.got)
		tr.record("hybrid.decode", d.index, 2+d.sub, d.got, d.at)
	}
	if bad > 0 {
		rec.lost(n, "%d of %d delivered payloads differ from the published frame", bad, len(delivered))
		return
	}
	rec.count(n)
	rec.firstFrame(first.Sub(start))
}

// awaitFrame waits until every subscriber holds frame index, or for the
// timeout, and returns the session's deliveries so far and how many
// subscribers hold the frame.
func (w *liveWorkload) awaitFrame(index int, timeout time.Duration) ([]delivery, int) {
	expired := time.After(timeout)
	for {
		w.mu.Lock()
		delivered := append([]delivery(nil), w.delivered...)
		w.mu.Unlock()
		reached := 0
		for _, d := range delivered {
			if d.index == index {
				reached++
			}
		}
		if reached == viewers {
			return delivered, reached
		}
		select {
		case <-w.arrived:
		case <-expired:
			return delivered, reached
		}
	}
}

// tracedSource is core.SimSource with a span around the simulation
// step and one around the emit, where the source waits for the chain.
func (w *liveWorkload) tracedSource(tr *tracer, base, n int) core.FrameSource {
	return func(ctx context.Context, emit func(beam.Frame) bool) error {
		for j := 0; j < n && ctx.Err() == nil; j++ {
			root := tr.root("bench.source", base+j, 0)
			sp := tr.begin("beam.step", root)
			w.sim.RunPeriods(1)
			frame := w.sim.Snapshot()
			tr.end(sp)
			sp = tr.begin("pipeline.emit_wait", root)
			ok := emit(frame)
			tr.end(sp)
			tr.end(root)
			if !ok {
				return nil
			}
		}
		return nil
	}
}

func (w *liveWorkload) finish(*recorder) error { return nil } // every session checked itself

// traced runs one session with spans around the simulation step, the
// emit and the publish, then the encode probe.
func (w *liveWorkload) traced(i int, tr *tracer, ref *recorder, m metrics) error {
	n := w.sz.liveSession
	before := w.svc.Stats()
	rec := &recorder{}
	start := time.Now()
	w.session(i, rec, tr)
	rec.wall = time.Since(start)
	after := w.svc.Stats()
	if rec.frames == 0 {
		ref.absorb(rec)
		return fmt.Errorf("traced session delivered nothing: %v", rec.notes)
	}
	m["trace.overhead_share"] = traceOverhead(ref, rec)
	ref.absorb(rec)

	w.mu.Lock()
	var pushed float64
	for _, d := range w.delivered {
		pushed += float64(d.bytes)
	}
	pushes := float64(len(w.delivered))
	w.mu.Unlock()

	// Probe: the wire encoding LiveRing.Publish computes once per frame.
	for j := 0; j < liveRingFrames && j < n; j++ {
		rep, err := w.ring.Frame(w.ring.NumFrames() - 1 - j)
		if err != nil {
			return err
		}
		sp := tr.probe("hybrid.encode", j)
		rep.AppendBinary(nil)
		tr.end(sp)
	}

	f := float64(n)
	m["beam.step_ms"] = tr.frameMs("beam.step")
	m["beam.particle_steps_per_s"] = perSecond(f*float64(w.sz.liveN)*float64(w.pipe.Sim.StepsPerPeriod), tr.totalMs("beam.step"))
	m["remote.publish_ms"] = tr.frameMs("remote.publish")
	m["hybrid.encode_ms"] = tr.frameMs("hybrid.encode")
	m["remote.push_bytes"] = pushed / pushes
	m["remote.service.delivered_share"] = pushes / (f * viewers)
	// LiveRing.Publish encodes each frame once; the service adds to that
	// only if it encodes again for its subscribers.
	m["remote.service.encodes_per_frame"] = (f + float64(after.FrameEncodes-before.FrameEncodes)) / f
	return nil
}
