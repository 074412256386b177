// Distrender demonstrates sort-last parallel rendering across real
// processes — the compositing architecture the paper ran for
// terascale fields, where no single node holds the frame's full point
// set and partial images are merged by depth.
//
// The parent process runs the beam simulation, hybrid extraction and
// the volume ray cast; the point-splat pass is split along the octree
// partition into sub-volumes and fanned across a fleet of three child
// worker processes (this same binary re-executed with -worker, the
// production shape of cmd/vizworker). Each worker renders its
// sub-volume with a depth channel, ships the compressed RGBA+depth
// partial framebuffer back over the Compute verb (kernel
// render.partial.v1), and the parent depth-composites the partials
// before finishing the frame locally.
//
// Mid-stream, the demo kills one of the three workers outright. The
// fleet ejects it and re-dispatches its partitions to the survivors —
// and because compositing is deterministic, every frame is still
// bit-identical to an all-local render of the same configuration, at
// every pixel, despite the loss.
//
//	go run ./examples/distrender
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/render"
)

const (
	particles  = 30_000
	nFrames    = 4
	volumeRes  = 24
	nWorkers   = 3
	partitions = 4
	frameSize  = 160
)

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		runWorker()
		return
	}

	// Spawn the render fleet as separate OS processes on ephemeral
	// ports, scraping each chosen address off the child's stdout.
	children := make([]*exec.Cmd, nWorkers)
	addrs := make([]string, nWorkers)
	for i := range children {
		child := exec.Command(os.Args[0], "-worker")
		child.Stderr = os.Stderr
		stdout, err := child.StdoutPipe()
		if err != nil {
			log.Fatal(err)
		}
		if err := child.Start(); err != nil {
			log.Fatal(err)
		}
		defer func() {
			child.Process.Kill()
			child.Wait()
		}()
		addr, err := readWorkerAddr(stdout)
		if err != nil {
			log.Fatalf("worker never came up: %v", err)
		}
		children[i], addrs[i] = child, addr
		fmt.Printf("parent: render worker %d serving on %s\n", child.Process.Pid, addr)
	}

	ro := core.RenderOptions{
		Width: frameSize, Height: frameSize,
		Workers:    2,
		Partitions: partitions,
	}
	pipelineFor := func() (*core.ParticlePipeline, core.FrameSource, error) {
		pp := core.NewParticlePipeline(particles)
		pp.Extract.VolumeRes = volumeRes
		sim, err := pp.NewSim()
		if err != nil {
			return nil, nil, err
		}
		return pp, core.SimSource(sim, nFrames, 2), nil
	}

	// All-local reference run: the same stream with the render stage
	// (splat pass + ray cast) in-process.
	pp, src, err := pipelineFor()
	if err != nil {
		log.Fatal(err)
	}
	localStart := time.Now()
	var local []*render.Framebuffer
	s := pp.StreamFrames(context.Background(), src, core.StreamOptions{Render: &ro})
	for r := range s.Out {
		local = append(local, r.FB)
	}
	if err := s.Wait(); err != nil {
		log.Fatal(err)
	}
	localTime := time.Since(localStart)

	// Distributed run: same simulation, same configs, but each frame's
	// point pass splits into sub-volumes rendered on the child fleet
	// and depth-composited here — and one child dies under the stream.
	pp, src, err = pipelineFor()
	if err != nil {
		log.Fatal(err)
	}
	distStart := time.Now()
	s = pp.StreamFrames(context.Background(), src, core.StreamOptions{
		Render:      &ro,
		RenderAddrs: addrs,
		RenderPolicy: &remote.FleetOptions{
			EjectAfter:    1,
			ProbeInterval: -1, // the killed child is not coming back
		},
	})
	frame := 0
	for r := range s.Out {
		match := "differs!"
		if sameFrame(r.FB, local[r.Index]) {
			match = "bit-identical"
		}
		fmt.Printf("parent: frame %d composited from %d partials (%dx%d) — %s\n",
			r.Index, partitions, r.FB.W, r.FB.H, match)
		if match == "differs!" {
			log.Fatalf("frame %d: distributed composite diverged from local render", r.Index)
		}
		s.RecycleFB(r.FB)
		frame++
		if frame == 1 {
			// One frame through: kill a worker with partitions in
			// flight. The fleet must hand them to the survivors.
			fmt.Printf("parent: killing render worker %d mid-stream\n", children[0].Process.Pid)
			children[0].Process.Kill()
		}
	}
	if err := s.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parent: %d/%d frames bit-identical to the local render, one worker lost mid-run\n",
		frame, nFrames)
	fmt.Printf("parent: local %.2fs, distributed %.2fs (loopback wire cost included)\n",
		localTime.Seconds(), time.Since(distStart).Seconds())
}

// sameFrame is the bit-level framebuffer comparison — NaN-safe, so a
// background depth of +Inf compares equal too.
func sameFrame(a, b *render.Framebuffer) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Color {
		if math.Float32bits(a.Color[i]) != math.Float32bits(b.Color[i]) {
			return false
		}
	}
	for i := range a.Depth {
		if math.Float32bits(a.Depth[i]) != math.Float32bits(b.Depth[i]) {
			return false
		}
	}
	return true
}

// runWorker is the child half: a vizworker on an ephemeral port.
func runWorker() {
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// The parent scrapes this line for the port.
	fmt.Printf("vizworker: serving on %s\n", w.Addr())
	select {} // serve until the parent kills us
}

// readWorkerAddr scans the child's stdout for the serving line.
func readWorkerAddr(r interface{ Read([]byte) (int, error) }) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "vizworker: serving on "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("worker exited without announcing an address")
}
