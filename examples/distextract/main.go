// Distextract demonstrates distributed stage execution across real
// processes — the architectural split the paper ran at NERSC, where
// simulation and visualization compute lived on different machines.
//
// The parent process runs the beam simulation and the stream
// orchestration; the heavy partition+extract stage runs on a fleet of
// two child worker processes (this same binary re-executed with
// -worker, exactly what cmd/vizworker hosts in production). Each
// frame's projected point set crosses a process boundary over the
// service protocol's Compute verb and the hybrid representation comes
// back, with frames striped across both workers.
//
// Mid-stream, the demo kills one of the two workers outright. The
// fleet ejects it, re-dispatches its in-flight frames to the
// survivor, and the stream finishes with every frame in order and
// bit-identical to an all-local run of the same configuration — the
// failover is invisible in the output.
//
//	go run ./examples/distextract
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
)

const (
	particles = 30_000
	nFrames   = 4
	volumeRes = 24
	nWorkers  = 2
)

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		runWorker()
		return
	}

	// Spawn the worker fleet as separate OS processes on ephemeral
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
		fmt.Printf("parent: worker process %d serving on %s\n", child.Process.Pid, addr)
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

	// All-local reference run.
	pp, src, err := pipelineFor()
	if err != nil {
		log.Fatal(err)
	}
	localStart := time.Now()
	var local [][]byte
	s := pp.StreamFrames(context.Background(), src, core.StreamOptions{ExtractWorkers: 2})
	for r := range s.Out {
		local = append(local, r.Rep.AppendBinary(nil))
	}
	if err := s.Wait(); err != nil {
		log.Fatal(err)
	}
	localTime := time.Since(localStart)

	// Distributed run: same simulation, same configs, but the
	// partition+extract stage stripes across the child fleet — and one
	// child is killed under the stream.
	pp, src, err = pipelineFor()
	if err != nil {
		log.Fatal(err)
	}
	distStart := time.Now()
	s = pp.StreamFrames(context.Background(), src, core.StreamOptions{
		ExtractAddrs:   addrs,
		ExtractWorkers: 2, // frames in flight per worker
		ExtractPolicy: &remote.FleetOptions{
			EjectAfter:    1,
			ProbeInterval: -1, // the killed child is not coming back
		},
	})
	frame := 0
	for r := range s.Out {
		enc := r.Rep.AppendBinary(nil)
		match := "differs!"
		if bytes.Equal(enc, local[r.Index]) {
			match = "bit-identical"
		}
		fmt.Printf("parent: frame %d extracted on fleet (%d halo points, %.2f MB) — %s\n",
			r.Index, r.Rep.NumPoints(), float64(len(enc))/1e6, match)
		if match == "differs!" {
			log.Fatalf("frame %d: distributed extraction diverged from local", r.Index)
		}
		frame++
		if frame == 1 {
			// One frame through: kill a worker with the stream live. The
			// fleet must hand its frames to the survivor.
			fmt.Printf("parent: killing worker process %d mid-stream\n", children[0].Process.Pid)
			children[0].Process.Kill()
		}
	}
	if err := s.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parent: %d/%d frames bit-identical across process boundaries, one worker lost mid-run\n",
		frame, nFrames)
	fmt.Printf("parent: local %.2fs, distributed %.2fs (loopback wire cost included)\n",
		localTime.Seconds(), time.Since(distStart).Seconds())
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
