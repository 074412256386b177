// Command vizserve runs the visualization service — the server half of
// the paper's remote setting, where hybrid frames live "where the
// supercomputer lives" and scientists connect from thousands of miles
// away. It serves one of the three store modes:
//
//	-dir DIR    serve the .achy frames of a directory (batch workflow)
//	-live       run a beam simulation and publish each extracted frame
//	            into a bounded latest-wins ring while serving it
//	            (in-situ mode: clients subscribed with vizclient -follow
//	            watch the run as it computes)
//	(default)   precompute -frames hybrid frames in memory, then serve
//
// Usage:
//
//	vizserve -addr 127.0.0.1:9920 -live -frames 50 -particles 100000
//	vizserve -dir ./frames
//	vizserve -live -max-sessions 64 -max-renders 4 -slow evict
//
// The overload flags (protocol v5) bound what a viewer crowd can do
// to the service: -max-sessions and -max-renders refuse excess work
// with a retryable error (reconnecting clients back off and retry),
// -queue bounds each subscriber's send queue, and -slow picks what
// happens to a subscriber that can't keep up (skip | degrade |
// evict). The service speaks protocol v8: the pipeline feeding it can
// itself fan sub-volume renders across vizworker fleets
// (core.StreamOptions.RenderAddrs, kernel render.partial.v1) and
// depth-composite the partials before frames ever reach this server —
// the sort-last half of the paper's parallel rendering architecture.
// In live mode the Stats verb carries the pipeline's per-stage table
// to vizclient -stats.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/remote"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vizserve: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:9920", "listen address")
		dir       = flag.String("dir", "", "serve .achy frames from this directory")
		live      = flag.Bool("live", false, "simulate and publish frames while serving (in-situ)")
		frames    = flag.Int("frames", 10, "frames to simulate")
		particles = flag.Int("particles", 50_000, "particles in the simulation")
		periods   = flag.Int("periods", 4, "lattice periods between frames")
		volres    = flag.Int("volres", 32, "hybrid volume resolution per axis")
		ring      = flag.Int("ring", 8, "live mode: frames retained in the latest-wins ring")
		maxSess   = flag.Int("max-sessions", 0, "max concurrent client sessions (0 = unlimited)")
		maxRend   = flag.Int("max-renders", 0, "max concurrent server-side renders (0 = unlimited)")
		queue     = flag.Int("queue", 0, "per-subscriber send queue bound (0 = default)")
		slow      = flag.String("slow", "skip", "slow-subscriber policy: skip, degrade or evict")
	)
	flag.Parse()

	policy, err := parseSlow(*slow)
	if err != nil {
		log.Fatal(err)
	}
	opts := remote.ServiceOptions{
		MaxSessions: *maxSess,
		MaxRenders:  *maxRend,
		SendQueue:   *queue,
		Slow:        policy,
	}

	switch {
	case *dir != "":
		store, err := remote.NewDirStore(*dir)
		if err != nil {
			log.Fatal(err)
		}
		serve(*addr, store, opts, fmt.Sprintf("%d on-disk frames from %s", store.NumFrames(), *dir))

	case *live:
		lr, err := remote.NewLiveRing(*ring)
		if err != nil {
			log.Fatal(err)
		}
		srv, err := remote.NewServiceWith(*addr, lr, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("vizserve: in-situ service on %s (ring of %d frames)\n", srv.Addr(), *ring)

		pp := core.NewParticlePipeline(*particles)
		pp.Extract.VolumeRes = *volres
		sim, err := pp.NewSim()
		if err != nil {
			log.Fatal(err)
		}
		stream := pp.StreamFrames(context.Background(),
			core.SimSource(sim, *frames, *periods), core.StreamOptions{Sink: lr})
		// Expose the live stage table through the Stats verb so
		// vizclient -stats can watch the pipeline work.
		srv.SetPipelineStats(stream.Snapshot)
		for r := range stream.Out {
			fmt.Printf("vizserve: published frame %d (%d halo points, %.2f MB)\n",
				r.Index, r.Rep.NumPoints(), float64(r.Rep.SizeBytes())/1e6)
		}
		if err := stream.Wait(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("vizserve: simulation finished; still serving — Ctrl-C to stop")
		waitInterrupt()
		srv.Close()

	default:
		pp := core.NewParticlePipeline(*particles)
		pp.Extract.VolumeRes = *volres
		sim, err := pp.NewSim()
		if err != nil {
			log.Fatal(err)
		}
		var reps []*hybrid.Representation
		stream := pp.StreamFrames(context.Background(),
			core.SimSource(sim, *frames, *periods), core.StreamOptions{})
		for r := range stream.Out {
			reps = append(reps, r.Rep)
		}
		if err := stream.Wait(); err != nil {
			log.Fatal(err)
		}
		store, err := remote.NewMemStore(reps)
		if err != nil {
			log.Fatal(err)
		}
		serve(*addr, store, opts, fmt.Sprintf("%d precomputed frames", len(reps)))
	}
}

func serve(addr string, store remote.FrameStore, opts remote.ServiceOptions, what string) {
	srv, err := remote.NewServiceWith(addr, store, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vizserve: serving %s on %s — Ctrl-C to stop\n", what, srv.Addr())
	waitInterrupt()
	srv.Close()
}

func parseSlow(s string) (remote.SlowPolicy, error) {
	switch s {
	case "skip":
		return remote.SlowSkip, nil
	case "degrade":
		return remote.SlowDegrade, nil
	case "evict":
		return remote.SlowEvict, nil
	}
	return 0, fmt.Errorf("slow policy %q must be skip, degrade or evict", s)
}

func waitInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
