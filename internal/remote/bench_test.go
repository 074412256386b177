package remote

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/compositor"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/render"
	"repro/internal/vec"
)

// BenchmarkRemoteFetch tracks the protocol's transfer paths: full
// frame fetch vs server-side render (the thin-client trade), each over
// a local socket and over a modeled wide-area link. The throttled
// numbers are dominated by the modeled bandwidth by design — they
// exist so a perf regression in framing or compression shows up as a
// changed bytes/op, and so the fetch:render wire-size ratio (the §2.5
// economics) is recorded per run.
func BenchmarkRemoteFetch(b *testing.B) {
	reps := testReps(b, 1)
	srv, store := serveMem(b, reps)
	params := RenderParams{Frame: 0, Width: 128, Height: 128, ViewDir: vec.New(0.4, 0.3, 1)}
	// A link fast enough to keep the bench smoke quick, slow enough to
	// dominate scheduling noise: ~5ms per frame at this test scale.
	throttle := store.FrameBytes(0) * 200

	run := func(name string, bps int64, fetch bool) {
		b.Run(name, func(b *testing.B) {
			cli := dial(b, srv.Addr())
			cli.SetBandwidth(bps)
			var wire int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if fetch {
					_, wire, _, err = cli.FetchFrame(0)
				} else {
					_, wire, _, err = cli.Render(params)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(wire)
		})
	}
	run("fetch/local", 0, true)
	run("fetch/throttled", throttle, true)
	run("render/local", 0, false)
	run("render/throttled", throttle, false)
}

// BenchmarkDistributedExtract compares the extraction stage's three
// placements: in-process (the local stage path), on a worker over a
// loopback socket (wire framing + encode/decode cost), and over a
// modeled wide-area link (the paper's cross-site setting, where the
// transfer dominates and overlapping in-flight frames is what keeps
// the pipeline busy). bytes/op tracks the wire cost of one frame;
// ReportAllocs makes the pooled payload path's steady-state
// allocation rate visible next to the local one.
func BenchmarkDistributedExtract(b *testing.B) {
	pts := testPoints(7, 20_000)
	tcfg := octree.DefaultConfig()
	ecfg := hybrid.ExtractConfig{VolumeRes: 16, Budget: 2000}

	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()

	// One frame's wire sizes, for the throttle model and SetBytes.
	reqBytes := int64(len(appendExtractRequest(nil, pts, tcfg, ecfg)))
	tree, err := octree.Build(pts, tcfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, ecfg)
	if err != nil {
		b.Fatal(err)
	}
	repBytes := int64(len(rep.AppendBinary(nil)))

	b.Run("local", func(b *testing.B) {
		b.SetBytes(reqBytes + repBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := octree.Build(pts, tcfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := hybrid.Extract(tree, ecfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	run := func(name string, bps int64) {
		b.Run(name, func(b *testing.B) {
			fl := soloFleet(b, w.Addr(), FleetOptions{Kernel: KernelHybridExtract, BandwidthBps: bps})
			b.SetBytes(reqBytes + repBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fl.ComputeExtract(context.Background(), pts, tcfg, ecfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("loopback", 0)
	// Fast enough to keep the bench smoke quick, slow enough that the
	// modeled link dominates: ~5ms per reply at this frame size.
	run("throttled", repBytes*200)
}

// rawLiveStore is a live store with no encoding of its own (unlike
// LiveRing, which encodes at publish), so every broadcast must go
// through the service's encode-once frame cache — that is the work
// BenchmarkFanOut meters. Published frames cycle a fixed rep set under
// a monotonically growing index, matching the append-only contract.
type rawLiveStore struct {
	mu       sync.Mutex
	reps     []*hybrid.Representation
	frames   int
	watchers map[int]func(int)
	nextW    int
}

func newRawLiveStore(reps []*hybrid.Representation) *rawLiveStore {
	return &rawLiveStore{reps: reps, watchers: make(map[int]func(int))}
}

func (s *rawLiveStore) NumFrames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

func (s *rawLiveStore) Frame(i int) (*hybrid.Representation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= s.frames {
		return nil, fmt.Errorf("remote: frame %d out of range", i)
	}
	return s.reps[i%len(s.reps)], nil
}

func (s *rawLiveStore) Watch(fn func(frames int)) (cancel func()) {
	s.mu.Lock()
	id := s.nextW
	s.nextW++
	s.watchers[id] = fn
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.watchers, id)
		s.mu.Unlock()
	}
}

func (s *rawLiveStore) publish() {
	s.mu.Lock()
	s.frames++
	frames := s.frames
	fns := make([]func(int), 0, len(s.watchers))
	for _, fn := range s.watchers {
		fns = append(fns, fn)
	}
	s.mu.Unlock()
	for _, fn := range fns {
		fn(frames)
	}
}

// BenchmarkFanOut is the tentpole measurement: one publish broadcast
// to N inline subscribers, gated (every subscriber acknowledges each
// frame before the next publish), over a local socket and a modeled
// WAN link. The encodes/frame metric is the encode-once contract —
// it stays ≈1 as subscribers grow from 1 to 64, because all N
// notifies share one cached wire encoding. The deltastep sub-bench
// records the other half of the economics: stepping a correlated
// beam-halo series frame-to-frame by XOR-delta ships a fraction of
// the full-frame bytes (reported as fullframe-B for comparison).
func BenchmarkFanOut(b *testing.B) {
	reps := correlatedReps(b, 4)
	full := int64(len(reps[0].AppendBinary(nil)))
	// ~5ms per frame at this size, as in BenchmarkRemoteFetch.
	throttle := full * 200

	for _, n := range []int{1, 8, 64} {
		for _, link := range []struct {
			name string
			bps  int64
		}{{"local", 0}, {"throttled", throttle}} {
			b.Run(fmt.Sprintf("subs=%d/%s", n, link.name), func(b *testing.B) {
				store := newRawLiveStore(reps)
				srv, err := NewService("127.0.0.1:0", store)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()

				acks := make(chan int, n)
				for i := 0; i < n; i++ {
					cli := dial(b, srv.Addr())
					cli.SetBandwidth(link.bps)
					sub, err := cli.SubscribeWith(SubscribeOptions{InlineFrames: true})
					if err != nil {
						b.Fatal(err)
					}
					<-sub.Updates // initial count
					go func() {
						for u := range sub.Frames {
							acks <- u.Frames
						}
					}()
				}

				start := srv.Stats()
				b.SetBytes(full)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					store.publish()
					for k := 0; k < n; k++ {
						if got := <-acks; got != i+1 {
							b.Fatalf("ack %d at frame %d (gated publish should never skip)", got, i+1)
						}
					}
				}
				b.StopTimer()
				st := srv.Stats()
				b.ReportMetric(float64(st.FrameEncodes-start.FrameEncodes)/float64(b.N), "encodes/frame")
			})
		}
	}

	for _, link := range []struct {
		name string
		bps  int64
	}{{"local", 0}, {"throttled", throttle}} {
		b.Run("deltastep/"+link.name, func(b *testing.B) {
			srv, _ := serveMem(b, reps)
			cli := dial(b, srv.Addr())
			cli.SetBandwidth(link.bps)
			baseEnc, err := cli.fetchEncoded(0)
			if err != nil {
				b.Fatal(err)
			}
			cur := 0
			var wire int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := (cur + 1) % len(reps)
				_, enc, w, _, err := cli.FetchFrameDelta(next, cur, baseEnc)
				if err != nil {
					b.Fatal(err)
				}
				wire = w
				cur, baseEnc = next, enc
			}
			b.SetBytes(wire)
			b.ReportMetric(float64(full), "fullframe-B")
		})
	}
}

// BenchmarkFleetExtract scales the distributed extraction stage
// across 1, 2, and 3 fleet members, loopback and over the modeled
// wide-area link. The throttle is per connection — each member gets
// its own modeled link, as distinct machines would — so the throttled
// rows are where fleet striping pays: aggregate bandwidth grows with
// membership and throughput should scale close to linearly, while
// loopback rows show the dispatch overhead when the wire is free.
// Window×members frames stay in flight, as a stream stage would keep
// them.
func BenchmarkFleetExtract(b *testing.B) {
	pts := testPoints(7, 20_000)
	tcfg := octree.DefaultConfig()
	ecfg := hybrid.ExtractConfig{VolumeRes: 16, Budget: 2000}

	const members = 3
	addrs := make([]string, members)
	for i := range addrs {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		addrs[i] = w.Addr()
	}

	reqBytes := int64(len(appendExtractRequest(nil, pts, tcfg, ecfg)))
	tree, err := octree.Build(pts, tcfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, ecfg)
	if err != nil {
		b.Fatal(err)
	}
	repBytes := int64(len(rep.AppendBinary(nil)))
	// ~20ms per reply at this frame size, per member link: slow enough
	// that the modeled transfer dominates the kernel compute even on a
	// small host, so the throttled rows isolate the striping gain.
	throttle := repBytes * 50

	const window = 2
	for _, n := range []int{1, 2, 3} {
		run := func(link string, bps int64) {
			b.Run(fmt.Sprintf("%s/workers=%d", link, n), func(b *testing.B) {
				fl, err := NewFleet(addrs[:n], FleetOptions{
					Kernel:        KernelHybridExtract,
					Window:        window,
					BandwidthBps:  bps,
					ProbeInterval: -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer fl.Close()
				b.SetBytes(reqBytes + repBytes)
				b.ReportAllocs()
				b.ResetTimer()
				sem := make(chan struct{}, window*n)
				errs := make(chan error, 1)
				var wg sync.WaitGroup
				for i := 0; i < b.N; i++ {
					sem <- struct{}{}
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { <-sem }()
						if _, err := fl.ComputeExtract(context.Background(), pts, tcfg, ecfg); err != nil {
							select {
							case errs <- err:
							default:
							}
						}
					}()
				}
				wg.Wait()
				select {
				case err := <-errs:
					b.Fatal(err)
				default:
				}
			})
		}
		run("loopback", 0)
		run("throttled", throttle)
	}
}

// BenchmarkDistributedRender scales the sort-last render path across
// 1, 2 and 3 fleet members, loopback and over the modeled per-member
// wide-area link: each frame splits into four sub-volume partitions,
// the fleet renders them via render.partial.v1, and the partials
// depth-composite back into one frame. bytes/op is the frame's full
// wire cost (requests out, compressed partials back) so a codec
// regression shows as a changed rate; partial-B records the average
// compressed partial size and composite-ms the per-frame composite
// cost, the two halves of the sort-last economics (ship less, merge
// fast).
func BenchmarkDistributedRender(b *testing.B) {
	rep := renderRepFixture(b, 20_000)
	const parts = 4
	n := len(rep.Points)

	reqs := make([]*RenderPartialRequest, parts)
	var reqBytes, partialBytes int64
	for k := 0; k < parts; k++ {
		reqs[k] = renderReqFixture(rep, k, k*n/parts, (k+1)*n/parts)
		reqs[k].Width, reqs[k].Height = 128, 128
		reqBytes += int64(len(appendRenderPartialRequest(nil, reqs[k])))
		// The worker's reply is bit-identical to the local pass, so its
		// wire size is too.
		partialBytes += int64(len(render.CompressPartial(localPointPass(b, reqs[k]), k)))
	}

	addrs := make([]string, 3)
	for i := range addrs {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		addrs[i] = w.Addr()
	}
	// ~20ms per frame's partials at this size, per member link, as in
	// BenchmarkFleetExtract: the modeled transfer dominates, so the
	// throttled rows isolate the striping gain.
	throttle := partialBytes * 50 / parts

	for _, members := range []int{1, 2, 3} {
		run := func(link string, bps int64) {
			b.Run(fmt.Sprintf("%s/workers=%d", link, members), func(b *testing.B) {
				fl, err := NewFleet(addrs[:members], FleetOptions{
					Kernel:        KernelRenderPartial,
					Window:        2,
					BandwidthBps:  bps,
					ProbeInterval: -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer fl.Close()
				fb, err := render.NewFramebuffer(128, 128)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(reqBytes + partialBytes)
				b.ReportAllocs()
				b.ResetTimer()
				var compositeNs int64
				for i := 0; i < b.N; i++ {
					partials := make([]*render.PartialFrame, parts)
					errs := make(chan error, parts)
					var wg sync.WaitGroup
					for k := 0; k < parts; k++ {
						wg.Add(1)
						go func(k int) {
							defer wg.Done()
							pf, err := fl.ComputeRender(context.Background(), reqs[k])
							if err != nil {
								select {
								case errs <- err:
								default:
								}
								return
							}
							partials[k] = pf
						}(k)
					}
					wg.Wait()
					select {
					case err := <-errs:
						b.Fatal(err)
					default:
					}
					fb.Clear(hybrid.RGBA{})
					start := time.Now()
					if err := compositor.CompositeDepth(fb, partials, 0); err != nil {
						b.Fatal(err)
					}
					compositeNs += time.Since(start).Nanoseconds()
				}
				b.ReportMetric(float64(partialBytes)/parts, "partial-B")
				b.ReportMetric(float64(compositeNs)/1e6/float64(b.N), "composite-ms")
			})
		}
		run("loopback", 0)
		run("throttled", throttle)
	}
}

// BenchmarkSlowSubscriber measures what a stalled viewer costs the
// publisher: per-publish latency into a live ring with 0, 1 and 8
// subscribers that stopped reading. The v5 send queues make the three
// numbers flat — update() only enqueues (and drops on overflow), so a
// wedged connection parks its own drain goroutine, never the publish
// path. A regression here means a slow client found a way to block the
// simulation again.
func BenchmarkSlowSubscriber(b *testing.B) {
	rep := testReps(b, 1)[0]
	for _, stalled := range []int{0, 1, 8} {
		b.Run(fmt.Sprintf("stalled=%d", stalled), func(b *testing.B) {
			ring, err := NewLiveRing(4)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := NewServiceWith("127.0.0.1:0", ring, ServiceOptions{SendQueue: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			for i := 0; i < stalled; i++ {
				stalledInlineSub(b, srv.Addr())
			}
			waitSubscribed(b, srv, stalled)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ring.Publish(i, rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
