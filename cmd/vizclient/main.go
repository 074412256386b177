// Command vizclient is the thin client of the visualization service:
// the program on "a scientist's desk thousands of miles away". It can
// list the server's frames, fetch one and render it locally, ask the
// server to render (shipping a ~kB RLE image instead of a ~MB frame),
// or follow a live in-situ run, rendering every new frame as the
// simulation publishes it.
//
// Usage:
//
//	vizclient -addr HOST:9920 -list
//	vizclient -addr HOST:9920 -stats
//	vizclient -addr HOST:9920 -fetch 3 -out frame3.png
//	vizclient -addr HOST:9920 -render 3 -quality preview -out frame3.png
//	vizclient -addr HOST:9920 -follow -out live.png
//	vizclient -addr HOST:9920 -follow -delta -out live.png
//	vizclient -addr HOST:9920 -follow -reconnect -out live.png
//
// -bw models the wide-area link in bytes/s (0 = unthrottled), printing
// the transfer economics the hybrid representation is designed around.
// -quality selects the server-render tier: "lossless" (default,
// bit-identical to a local render) or "preview" (quantized 8-bit
// color, several times smaller on the wire). -delta switches follow
// mode from server renders to local renders over XOR-delta frame
// fetches: after the first full frame, each update ships only what
// changed.
//
// Every call rides out a dropped connection (or a retryably-refusing
// overloaded server): the client redials with backoff instead of
// killing the command. -reconnect makes follow mode ride the resumable
// subscription — ordered, gapless, bit-identical across reconnects —
// rendering every frame locally. -stats pretty-prints the server's v5
// Stats report: service counters plus the per-session
// queue/drop/degrade table.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/render"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vizclient: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:9920", "service address")
		list      = flag.Bool("list", false, "list the server's frames")
		fetch     = flag.Int("fetch", -1, "fetch this frame and render locally")
		rend      = flag.Int("render", -1, "render this frame server-side")
		follow    = flag.Bool("follow", false, "subscribe and server-render every new frame")
		out       = flag.String("out", "frame.png", "output PNG (follow mode: _NNNN inserted)")
		size      = flag.Int("size", 512, "image size in pixels (square)")
		view      = flag.String("view", "0.4,0.3,1", "view direction dx,dy,dz")
		bw        = flag.Int64("bw", 0, "modeled link bandwidth in bytes/s (0 = unthrottled)")
		quality   = flag.String("quality", "lossless", "server render tier: lossless or preview")
		delta     = flag.Bool("delta", false, "follow mode: fetch frames as XOR-deltas and render locally")
		reconnect = flag.Bool("reconnect", false, "follow mode: a resumable subscription, gapless across reconnects")
		stats     = flag.Bool("stats", false, "print the server's stats report and session table")
	)
	flag.Parse()
	if !render.PlausibleSize(*size, *size) {
		log.Fatalf("-size %d out of range: a picture is 1 to 2048 pixels a side", *size)
	}
	if *bw < 0 {
		log.Fatalf("-bw %d must not be negative (0 = unthrottled)", *bw)
	}

	dir, err := parseVec(*view)
	if err != nil {
		log.Fatal(err)
	}
	tier, err := parseQuality(*quality)
	if err != nil {
		log.Fatal(err)
	}
	cli, err := remote.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	cli.SetBandwidth(*bw)

	switch {
	case *stats:
		r, err := cli.Stats()
		if err != nil {
			log.Fatal(err)
		}
		printStats(*addr, r)

	case *list:
		li, err := cli.List()
		if err != nil {
			log.Fatal(err)
		}
		mode := "static"
		if li.Live {
			mode = "live"
		}
		fmt.Printf("%s: %d frames (index %d..%d), %s\n", *addr, li.Frames-li.First, li.First, li.Frames-1, mode)

	case *fetch >= 0:
		rep, size2, took, err := cli.FetchFrame(*fetch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %d: %.2f MB in %v (%.2f MB/s)\n",
			*fetch, float64(size2)/1e6, took, float64(size2)/took.Seconds()/1e6)
		tf, err := core.DefaultTF(rep)
		if err != nil {
			log.Fatal(err)
		}
		fb, _, _, err := core.RenderFrame(rep, tf, *size, *size, dir)
		if err != nil {
			log.Fatal(err)
		}
		writePNG(fb.WritePNG, *out)

	case *rend >= 0:
		fb, wire, took, err := cli.Render(remote.RenderParams{
			Frame: *rend, Width: *size, Height: *size, ViewDir: dir, Quality: tier,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %d: server-rendered, %.3f MB image in %v\n",
			*rend, float64(wire)/1e6, took)
		writePNG(fb.WritePNG, *out)

	case *follow && *reconnect:
		// Resilient follow: the resumed stream delivers every frame in
		// order across reconnects, each with its wire payload — render
		// locally as the frames arrive.
		sub, err := cli.SubscribeResume(-1)
		if err != nil {
			log.Fatal(err)
		}
		defer sub.Close()
		rendered := 0
		for f := range sub.Frames {
			rep, err := f.Decode()
			if err != nil {
				log.Fatal(err)
			}
			tf, err := core.DefaultTF(rep)
			if err != nil {
				log.Fatal(err)
			}
			fb, _, _, err := core.RenderFrame(rep, tf, *size, *size, dir)
			if err != nil {
				log.Fatal(err)
			}
			dst := strings.TrimSuffix(*out, ".png") + fmt.Sprintf("_%04d.png", f.Index)
			writePNG(fb.WritePNG, dst)
			fmt.Printf("frame %d: %.3f MB payload -> %s\n", f.Index, float64(len(f.Payload))/1e6, dst)
			rendered++
		}
		if err := sub.Err(); err != nil {
			log.Printf("feed failed: %v", err)
		}
		fmt.Printf("feed closed after %d frames (%d reconnects, %d skipped)\n",
			rendered, cli.Redials(), sub.Skipped())

	case *follow:
		sub, err := cli.Subscribe()
		if err != nil {
			log.Fatal(err)
		}
		defer sub.Close()
		rendered := 0
		baseIdx := -1      // last frame held, the next delta base
		var baseEnc []byte // its wire encoding
		for frames := range sub.Updates {
			if frames == 0 {
				continue
			}
			idx := frames - 1 // latest
			var fb *render.Framebuffer
			var wire int64
			var took time.Duration
			if *delta {
				// Delta mode: pull the frame (as a residual once a base
				// is held) and render locally.
				rep, enc, w, d, err := cli.FetchFrameDelta(idx, baseIdx, baseEnc)
				if err != nil {
					log.Printf("frame %d: %v", idx, err)
					continue
				}
				baseIdx, baseEnc = idx, enc
				tf, err := core.DefaultTF(rep)
				if err != nil {
					log.Fatal(err)
				}
				if fb, _, _, err = core.RenderFrame(rep, tf, *size, *size, dir); err != nil {
					log.Fatal(err)
				}
				wire, took = w, d
			} else {
				var err error
				if fb, wire, took, err = cli.Render(remote.RenderParams{
					Frame: idx, Width: *size, Height: *size, ViewDir: dir, Quality: tier,
				}); err != nil {
					log.Printf("frame %d: %v", idx, err)
					continue
				}
			}
			dst := strings.TrimSuffix(*out, ".png") + fmt.Sprintf("_%04d.png", idx)
			writePNG(fb.WritePNG, dst)
			fmt.Printf("frame %d: %.3f MB on the wire in %v -> %s\n", idx, float64(wire)/1e6, took, dst)
			rendered++
		}
		fmt.Printf("feed closed after %d frames\n", rendered)

	default:
		log.Fatal("one of -list, -stats, -fetch, -render or -follow required")
	}
}

// printStats pretty-prints a v5 stats report: the service counters,
// then one line per live session.
func printStats(addr string, r remote.StatsReport) {
	s := r.Stats
	fmt.Printf("%s:\n", addr)
	fmt.Printf("  frames   %d encoded, %d cache hits\n", s.FrameEncodes, s.FrameHits)
	fmt.Printf("  renders  %d run, %d cache hits, %d refused\n", s.Renders, s.RenderHits, s.RendersRefused)
	fmt.Printf("  deltas   %d encoded, %d cache hits\n", s.DeltaEncodes, s.DeltaHits)
	fmt.Printf("  notifies %d inline, %d count-only\n", s.NotifyFrames, s.NotifyCounts)
	fmt.Printf("  pings    %d\n", s.Pings)
	fmt.Printf("  overload %d sessions refused, %d pushes dropped, %d degraded, %d evicted\n",
		s.SessionsRefused, s.PushesDropped, s.PushesDegraded, s.SessionsEvicted)
	fmt.Printf("sessions (%d):\n", len(r.Sessions))
	for _, sess := range r.Sessions {
		state := "idle"
		switch {
		case sess.Refused:
			state = "refused"
		case sess.Subscribed && sess.Inline:
			state = "subscribed (inline)"
		case sess.Subscribed:
			state = "subscribed"
		}
		line := fmt.Sprintf("  #%d %s  %s", sess.ID, sess.Remote, state)
		if sess.Subscribed {
			line += fmt.Sprintf("  queue %d/%d  sent %d (last count %d)  dropped %d  degraded %d",
				sess.QueueDepth, sess.QueueCap, sess.Sent, sess.LastSent, sess.Dropped, sess.Degraded)
		}
		fmt.Println(line)
	}
	if len(r.Pipeline) == 0 {
		return
	}
	fmt.Printf("pipeline (%d stages, * = critical path):\n", len(r.Pipeline))
	for _, st := range r.Pipeline {
		mark := " "
		if st.Critical {
			mark = "*"
		}
		line := fmt.Sprintf("  %s %-12s %-6s  workers %-3d util %3.0f%%  recv %3.0f%%  send %3.0f%%  inflight %d  done %d  svc %v  %.1f/s",
			mark, st.Name, st.Kind, st.Workers,
			100*st.Utilization, 100*st.RecvWait, 100*st.SendWait,
			st.InFlight, st.Done, st.ServiceEWMA.Round(time.Microsecond), st.Throughput)
		if st.Finished {
			line += "  finished"
		}
		fmt.Println(line)
	}
}

func writePNG(write func(string) error, path string) {
	if err := write(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func parseQuality(s string) (remote.RenderQuality, error) {
	switch s {
	case "lossless":
		return remote.QualityLossless, nil
	case "preview":
		return remote.QualityPreview, nil
	}
	return 0, fmt.Errorf("quality %q must be lossless or preview", s)
}

func parseVec(s string) (vec.V3, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return vec.V3{}, fmt.Errorf("view %q must be dx,dy,dz", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return vec.V3{}, err
		}
		v[i] = f
	}
	return vec.New(v[0], v[1], v[2]), nil
}
