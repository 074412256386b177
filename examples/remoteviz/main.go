// Remoteviz demonstrates the visualization service in the remote
// setting the paper motivates — but against a *live* pipeline: the
// server side runs the beam simulation and publishes each extracted
// hybrid frame into a bounded latest-wins ring while a subscribed
// client consumes the run in both client modes:
//
// fetch-and-render-locally (download the hybrid frame over a
// throttled wide-area link and render on the desktop — §2.5's
// "10 seconds for a 100MB time step" economics) and render-remotely
// (thin client: ship only camera parameters and receive an
// RLE-compressed framebuffer rendered server-side, bit-identical to
// the local render at a fraction of the bytes).
//
// The thin-client mode runs at both protocol v3 quality tiers side by
// side: the lossless default, and a preview-tier subscriber — the
// "scrubbing" client that trades bit-exactness for a quantized 8-bit
// image several times smaller again. Both renders come out of the
// server's encode-once render cache, so the second subscriber's tier
// is the only extra work the server does for it.
//
// A fourth seat demonstrates protocol v5 resilience: a viewer whose
// connection is deliberately killed mid-stream. Its client redials,
// the resumed subscription re-subscribes and catches up over GetDelta —
// the viewer ends the run with every frame, in order, with no
// duplicates, as if the link had never dropped.
//
//	go run ./examples/remoteviz
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/pario"
	"repro/internal/remote"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)

	// Server side: an in-situ service over a live-frame ring.
	const (
		particles = 30_000
		nFrames   = 3
		linkBps   = 20 << 20 // a 20 MB/s wide-area link
	)
	ring, err := remote.NewLiveRing(nFrames)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := remote.NewService("127.0.0.1:0", ring)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server: in-situ service at %s\n", srv.Addr())

	pp := core.NewParticlePipeline(particles)
	pp.Extract.VolumeRes = 24
	sim, err := pp.NewSim()
	if err != nil {
		log.Fatal(err)
	}
	stream := pp.StreamFrames(context.Background(),
		core.SimSource(sim, nFrames, 6),
		core.StreamOptions{Sink: ring})

	// Client side: subscribe over a throttled link and consume the run
	// while it computes.
	cli, err := remote.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	cli.SetBandwidth(linkBps)
	sub, err := cli.Subscribe()
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	// A second, preview-tier subscriber on its own connection — the
	// low-bandwidth seat riding the same encode-once caches.
	preview, err := remote.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer preview.Close()
	preview.SetBandwidth(linkBps)

	// A resilient viewer (protocol v5): its dialer remembers the live
	// connection so the demo can kill it mid-stream, and the resumed
	// subscription survives the loss invisibly.
	var (
		connMu   sync.Mutex
		liveConn net.Conn
	)
	rcli, err := remote.DialWith(srv.Addr(), remote.ClientOptions{
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				connMu.Lock()
				liveConn = c
				connMu.Unlock()
			}
			return c, err
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rcli.Close()
	rsub, err := rcli.SubscribeResume(-1)
	if err != nil {
		log.Fatal(err)
	}
	defer rsub.Close()
	resumedIdxs := make(chan []int, 1)
	go func() {
		killed := false
		var idxs []int
		for f := range rsub.Frames {
			idxs = append(idxs, f.Index)
			if !killed {
				// Sever the viewer's link right after its first frame —
				// the client redials and the subscription resumes at
				// frame f.Index+1, no gap, no duplicate.
				killed = true
				connMu.Lock()
				liveConn.Close()
				connMu.Unlock()
				fmt.Printf("viewer: link killed after frame %d — reconnecting\n", f.Index)
			}
			if f.Index == nFrames-1 {
				break
			}
		}
		resumedIdxs <- idxs
	}()

	// Surface a mid-run pipeline failure instead of blocking on a feed
	// that will never deliver the final frame.
	streamErr := make(chan error, 1)
	go func() { streamErr <- stream.Wait() }()

	viewDir := vec.New(0.4, 0.3, 1)
	rawBytes := pario.FrameBytes(particles)
	fmt.Printf("client: following live run; link %d MB/s\n\n", linkBps>>20)
	seen := 0
	for seenLast := false; !seenLast; {
		var frames int
		select {
		case f, ok := <-sub.Updates:
			if !ok {
				log.Fatal("subscription feed closed before the final frame")
			}
			frames = f
		case err := <-streamErr:
			if err != nil {
				log.Fatal(err)
			}
			streamErr = nil // clean finish: keep draining updates
			continue
		}
		if frames == 0 {
			continue // initial count before the first publish
		}
		i := frames - 1 // latest-wins: render the newest frame
		seenLast = i == nFrames-1

		// Mode 1: fetch the hybrid frame, render locally.
		rep, size, took, err := cli.FetchFrame(i)
		if err != nil {
			log.Fatal(err)
		}
		rawTime := remote.TransferEstimate(rawBytes, linkBps)
		fmt.Printf("frame %d: fetched %7.2f MB in %8v (raw %.2f MB would take %v — %.0fx longer)\n",
			i, float64(size)/1e6, took.Round(1000),
			float64(rawBytes)/1e6, rawTime.Round(1000),
			float64(rawBytes)/float64(size))
		tf, err := core.DefaultTF(rep)
		if err != nil {
			log.Fatal(err)
		}
		fb, _, _, err := core.RenderFrame(rep, tf, 256, 256, viewDir)
		if err != nil {
			log.Fatal(err)
		}
		if err := fb.WritePNG(fmt.Sprintf("remoteviz_local%d.png", i)); err != nil {
			log.Fatal(err)
		}

		// Mode 2: thin client — the server renders the same frame.
		rfb, wire, rtook, err := cli.Render(remote.RenderParams{
			Frame: i, Width: 256, Height: 256, ViewDir: viewDir,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %d: server-rendered %.3f MB image in %8v (%.0fx smaller than the frame)\n",
			i, float64(wire)/1e6, rtook.Round(1000), float64(size)/float64(wire))
		if err := rfb.WritePNG(fmt.Sprintf("remoteviz_remote%d.png", i)); err != nil {
			log.Fatal(err)
		}

		// Mode 3: the preview-tier subscriber asks for the same view at
		// the quantized tier — the cheapest seat in the house.
		pfb, pwire, ptook, err := preview.Render(remote.RenderParams{
			Frame: i, Width: 256, Height: 256, ViewDir: viewDir,
			Quality: remote.QualityPreview,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %d: preview-tier    %.3f MB image in %8v (%.1fx smaller than lossless)\n",
			i, float64(pwire)/1e6, ptook.Round(1000), float64(wire)/float64(pwire))
		if err := pfb.WritePNG(fmt.Sprintf("remoteviz_preview%d.png", i)); err != nil {
			log.Fatal(err)
		}

		seen++
	}
	if streamErr != nil {
		if err := <-streamErr; err != nil {
			log.Fatal(err)
		}
	}
	idxs := <-resumedIdxs
	fmt.Printf("\nresilient viewer: frames %v over %d redial(s), %d skipped — seamless resume\n",
		idxs, rcli.Redials(), rsub.Skipped())
	fmt.Printf("consumed %d live frames; wrote remoteviz_{local,remote,preview}*.png\n", seen)
}
