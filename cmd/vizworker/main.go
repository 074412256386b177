// Command vizworker hosts a compute worker for distributed stage
// execution: it serves the service protocol's Compute verb with the
// two built-in stage kernels (hybrid extraction hybrid.extract.v3 and
// the sort-last partial render render.partial.v1), so a pipeline
// elsewhere can place its heavy per-frame compute on this process with
// core.StreamOptions.ExtractAddrs / RenderAddrs — the
// paper's split of simulation and visualization compute across
// machines. Workers advertise their kernel set over the Kernels verb,
// which is how a fleet verifies provisioning before striping frames
// here; render fleets use the same check to confirm a worker can
// produce depth-augmented partial framebuffers before sub-volume
// renders are fanned to it. An extraction runs on this host's cores,
// however many: it gives the same bytes at every core count, so the
// requester's and this worker's need not match.
//
// The worker is a remote.Service without a frame store, so it runs
// the same session envelope as vizserve: it reaps a peer silent past
// the idle timeout (cancelling the kernels that peer left running),
// and it answers Stats, so vizclient -addr ADDR -stats prints its
// session table.
//
// Usage:
//
//	vizworker -addr 127.0.0.1:9921 [-drain-timeout 30s]
//
// The chosen address is printed as "vizworker: serving ... on ADDR" —
// with -addr 127.0.0.1:0 the kernel-chosen port appears there, which
// is how the multi-process examples (examples/distextract,
// examples/distrender) find their child workers.
//
// On SIGINT or SIGTERM the worker drains instead of dying mid-frame:
// it stops accepting connections, answers new Compute requests with a
// retryable "unavailable" error (so a fleet re-dispatches them to
// surviving workers), finishes the kernels already in flight (bounded
// by -drain-timeout), and exits. A second signal forces an immediate
// stop.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/remote"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vizworker: ")
	addr := flag.String("addr", "127.0.0.1:9921", "listen address (use :0 for an ephemeral port)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight kernels on SIGINT/SIGTERM")
	flag.Parse()

	w, err := remote.NewWorker(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vizworker: serving kernels [%s] on %s — Ctrl-C to stop\n",
		strings.Join(w.Kernels(), " "), w.Addr())

	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	log.Printf("%s: draining (in-flight kernels finish, new requests refused; again to force)", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		select {
		case sig := <-ch:
			log.Printf("%s: forcing immediate stop", sig)
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := w.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	log.Print("drained")
}
