package repro

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/remote"
	"repro/internal/render"
	"repro/internal/vec"
)

// These tests exercise the remote service against live core pipelines.
// They live at the root (not in internal/remote) because core sits
// above remote in the layering — core places distributed stages on
// remote workers — so remote's own tests cannot import core.

func dialRemote(t testing.TB, addr string) *remote.Client {
	t.Helper()
	cli, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// fbEqual asserts two framebuffers match bit for bit.
func fbEqual(t *testing.T, got, want *render.Framebuffer, what string) {
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

// gatedSink wraps a FrameSink so the test can interleave
// deterministically with the running pipeline: after each publish the
// sink blocks until the test acknowledges, proving the client consumed
// the frame while the simulation was still mid-run.
type gatedSink struct {
	inner     core.FrameSink
	published chan int
	ack       chan struct{}
}

func (g *gatedSink) Publish(index int, rep *hybrid.Representation) error {
	if err := g.inner.Publish(index, rep); err != nil {
		return err
	}
	g.published <- index
	<-g.ack
	return nil
}

// TestInSituLiveRoundTrip is the acceptance test of the service API: a
// live core.StreamFrames run publishes into a Service through a
// LiveRing FrameSink while a subscribed client receives and fetches
// frames mid-run, and a Render request against the live store returns
// a framebuffer bit-identical to core.RenderFrame computed locally on
// the fetched frame.
func TestInSituLiveRoundTrip(t *testing.T) {
	const nFrames = 3
	ring, err := remote.NewLiveRing(nFrames + 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := remote.NewService("127.0.0.1:0", ring)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := dialRemote(t, srv.Addr())

	li, err := cli.List()
	if err != nil {
		t.Fatal(err)
	}
	if !li.Live || li.Frames != 0 {
		t.Fatalf("live ring lists as %+v, want live and empty", li)
	}
	sub, err := cli.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if n := <-sub.Updates; n != 0 {
		t.Fatalf("initial update %d, want 0", n)
	}

	// Server side: a live pipeline publishing into the ring.
	pp := core.NewParticlePipeline(6000)
	pp.Extract.VolumeRes = 12
	sim, err := pp.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sink := &gatedSink{inner: ring, published: make(chan int), ack: make(chan struct{})}
	stream := pp.StreamFrames(context.Background(),
		core.SimSource(sim, nFrames, 2),
		core.StreamOptions{Sink: sink})

	viewDir := vec.New(0.4, 0.3, 1)
	for want := 0; want < nFrames; want++ {
		select {
		case idx := <-sink.published:
			if idx != want {
				t.Fatalf("published frame %d, want %d", idx, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("pipeline never published")
		}

		// The pipeline is now blocked mid-run, holding frame `want`
		// published: the subscriber must observe the new frame count...
		select {
		case n := <-sub.Updates:
			if n != want+1 {
				t.Fatalf("update says %d frames, want %d", n, want+1)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("no subscription update for published frame")
		}

		// ...fetch the frame live, bit-identical to what was published...
		rep, _, _, err := cli.FetchFrame(want)
		if err != nil {
			t.Fatalf("live fetch %d: %v", want, err)
		}
		wantEnc, err := ring.EncodedFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep.AppendBinary(nil), wantEnc) {
			t.Errorf("live frame %d not bit-identical", want)
		}

		// ...and server-render it, matching a local render exactly.
		remoteFB, _, _, err := cli.Render(remote.RenderParams{Frame: want, Width: 64, Height: 64, ViewDir: viewDir})
		if err != nil {
			t.Fatalf("live render %d: %v", want, err)
		}
		tf, err := core.DefaultTF(rep)
		if err != nil {
			t.Fatal(err)
		}
		localFB, _, _, err := core.RenderFrame(rep, tf, 64, 64, viewDir)
		if err != nil {
			t.Fatal(err)
		}
		fbEqual(t, remoteFB, localFB, "in-situ server render")

		sink.ack <- struct{}{} // let the simulation advance
	}
	if err := stream.Wait(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if n, err := cli.NumFrames(); err != nil || n != nFrames {
		t.Errorf("final frame count %d (err %v), want %d", n, err, nFrames)
	}
}
