package remote

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pipeline"
	"repro/internal/vec"
)

// Kernel is one named remote stage body: decode the request blob,
// compute, encode the reply blob. Kernels run concurrently (one
// goroutine per in-flight Compute) and must not retain req after
// returning — the worker recycles both buffers. ctx is cancelled when
// the requesting connection dies, so long kernels can abort work
// nobody will read.
type Kernel func(ctx context.Context, req []byte) ([]byte, error)

// Worker is the compute half of the distributed stage engine: a
// service hosting named stage kernels behind the Compute verb, so a
// pipeline's Map stage can run on this process while the stream's
// orchestration stays with the requester — the paper's split of
// heavy per-frame compute away from the producing machine. NewWorker
// registers the built-in kernels (hybrid extraction and the v6
// sort-last partial render); Register adds more. Workers advertise
// their kernel set over the v4 Kernels verb, which is how a Fleet
// verifies a member's provisioning before dispatching frames to it.
// cmd/vizworker is the CLI host.
type Worker struct {
	srv *server

	// draining refuses new Computes (ErrCodeUnavailable) while
	// Shutdown waits for the in-flight ones — the graceful half of
	// going away, vs Close's immediate severing.
	draining atomic.Bool
	inflight sync.WaitGroup

	mu      sync.RWMutex
	kernels map[string]Kernel
}

// NewWorker starts a worker on addr (use "127.0.0.1:0" for an
// ephemeral port) with the built-in kernels registered.
func NewWorker(addr string) (*Worker, error) {
	w := &Worker{kernels: make(map[string]Kernel)}
	w.Register(KernelHybridExtract, hybridExtractKernel())
	w.Register(KernelRenderPartial, renderPartialKernel())
	srv, err := newServer(addr, w.handle)
	if err != nil {
		return nil, err
	}
	w.srv = srv
	return w, nil
}

// Register adds (or replaces) a named kernel. Safe to call while the
// worker is serving.
func (w *Worker) Register(name string, k Kernel) {
	w.mu.Lock()
	w.kernels[name] = k
	w.mu.Unlock()
}

// Kernels lists the registered kernel names, sorted — the set the
// worker advertises over the Kernels verb.
func (w *Worker) Kernels() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	names := make([]string, 0, len(w.kernels))
	for name := range w.kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Addr returns the listening address.
func (w *Worker) Addr() string { return w.srv.Addr() }

// Close stops accepting, severs every connection (cancelling in-flight
// kernels' contexts), and waits for all handlers to unwind.
func (w *Worker) Close() error { return w.srv.Close() }

// Shutdown drains the worker gracefully: stop accepting connections,
// refuse new Compute requests with ErrCodeUnavailable (so a fleet
// re-dispatches them to surviving members instead of losing frames),
// let the in-flight kernels finish and their replies reach the wire,
// then sever what remains. ctx bounds the wait — when it expires the
// remaining kernels are cut off Close-style. This is what
// cmd/vizworker runs on SIGINT/SIGTERM, so killing a worker
// mid-compute hands its frames back rather than truncating them.
func (w *Worker) Shutdown(ctx context.Context) error {
	w.draining.Store(true)
	w.srv.StopAccepting()
	done := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	return w.srv.Close()
}

// handle runs one connection: handshake, then a read loop spawning a
// goroutine per Compute so a slow kernel doesn't stall the frames
// queued behind it — the requester's in-flight frames all make
// progress and its reorderer restores frame order. Framing errors
// terminate the connection; well-framed requests for verbs a worker
// does not speak get a typed ErrCodeUnknownVerb reply and the
// connection stays up.
func (w *Worker) handle(conn net.Conn) {
	if err := serverHello(conn); err != nil {
		return
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	cw := newConnWriter(conn)

	// On exit: cancel the kernels' context first, then wait for the
	// request goroutines — the reverse order would deadlock behind a
	// kernel parked on ctx (defers run last-in-first-out).
	var reqs sync.WaitGroup
	defer reqs.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for {
		msg, err := readMessage(br, 0)
		if err != nil {
			return
		}
		switch msg.op {
		case opCompute:
			if w.draining.Load() {
				msg.recycle()
				if cw.sendErr(msg.reqID, &WireError{
					Code: ErrCodeUnavailable,
					Msg:  "remote: worker is draining",
				}) != nil {
					return
				}
				continue
			}
			reqs.Add(1)
			w.inflight.Add(1)
			go func(m message) {
				defer reqs.Done()
				defer w.inflight.Done()
				w.serveCompute(ctx, cw, m)
			}(msg)
		case opPing:
			msg.recycle()
			if cw.reply(msg.reqID, opPing, nil, nil) != nil {
				return
			}
		case opKernels:
			msg.recycle()
			payload, err := encodeKernelList(w.Kernels())
			if cw.reply(msg.reqID, opKernels, payload, err) != nil {
				return
			}
		default:
			if cw.sendErr(msg.reqID, &WireError{
				Code: ErrCodeUnknownVerb,
				Msg:  fmt.Sprintf("remote: worker does not speak opcode %#02x", msg.op),
			}) != nil {
				return
			}
		}
	}
}

// serveCompute runs one kernel invocation and recycles both payload
// buffers once they are off to the wire.
func (w *Worker) serveCompute(ctx context.Context, cw *connWriter, msg message) {
	out, err := w.compute(ctx, msg.payload)
	msg.recycle()
	cw.reply(msg.reqID, opCompute, out, err)
	putBytes(out)
}

// compute decodes a Compute payload and runs the kernel it names.
func (w *Worker) compute(ctx context.Context, p []byte) ([]byte, error) {
	name, blob, err := decodeComputeRequest(p)
	if err != nil {
		return nil, badRequest(err)
	}
	w.mu.RLock()
	k := w.kernels[name]
	w.mu.RUnlock()
	if k == nil {
		return nil, &WireError{
			Code: ErrCodeUnknownKernel,
			Msg:  fmt.Sprintf("remote: worker has no kernel %q", name),
		}
	}
	return k(ctx, blob)
}

// hybridExtractKernel builds the standard distributed stage: a
// projected point set comes in, the worker runs the exact local
// partition+extract pair — octree.Build then hybrid.Extract with the
// shipped configs — and the hybrid representation goes back in .achy
// encoding. Point-set scratch, octree builders, retired trees and reply
// buffers recycle across frames: the tree never leaves the kernel, so it
// is retired as soon as Extract, which copies what it keeps, returns.
func hybridExtractKernel() Kernel {
	scratch := pipeline.NewSlicePool[vec.V3]()
	builders := pipeline.NewFreeList(func() *octree.Builder { return new(octree.Builder) })
	trees := pipeline.NewFreeList(func() *octree.Tree { return nil })
	return func(ctx context.Context, req []byte) ([]byte, error) {
		buf := scratch.Get(0)
		pts, tcfg, ecfg, err := decodeExtractRequest(req, *buf)
		if err != nil {
			scratch.Put(buf)
			return nil, badRequest(err)
		}
		*buf = pts
		if err := ctx.Err(); err != nil {
			scratch.Put(buf)
			return nil, err
		}
		b := builders.Get()
		tree, err := b.Build(pts, tcfg, trees.Get())
		builders.Put(b)
		scratch.Put(buf) // Build copies what it keeps
		if err != nil {
			return nil, err
		}
		defer trees.Put(tree)
		// Phase boundary: if the requester vanished mid-Build, skip the
		// extract nobody will read.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := hybrid.Extract(tree, ecfg)
		if err != nil {
			return nil, err
		}
		return rep.AppendBinary(getBytes(0)), nil
	}
}
