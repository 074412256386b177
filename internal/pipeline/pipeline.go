// Package pipeline is the streaming stage engine behind the core
// façade: a generic executor that connects typed stages with bounded
// channels so successive frames of a time series overlap — frame N+1
// partitions while frame N extracts and frame N-1 renders, the same
// stage-parallel structure the paper's chain of separate programs
// (simulate → partition → extract → render) has when driven over
// hundreds of time steps.
//
// The building blocks:
//
//   - A Pipeline owns the shared context, the first error, and the
//     lifetime of every goroutine a stream starts. Wait blocks until
//     all stages drain and returns the first error; Cancel aborts the
//     whole stream promptly.
//   - Source feeds values into the chain from a generator goroutine.
//   - Map is a stage: a fixed number of worker goroutines, a bounded
//     output channel for backpressure, and order preservation (results
//     are re-sequenced, so a multi-worker stage still emits frames in
//     input order — required for deterministic output files and
//     bit-identical comparisons against the serial path). The stage
//     body is a plain function, whether it runs in-process or ships
//     the frame to a remote worker process (the distributed-stage path
//     wired by core.StreamOptions.ExtractAddrs): the engine does not
//     know the difference.
//   - Sink terminates a chain.
//   - FreeList (freelist.go) recycles per-frame scratch buffers
//     (projection point slices, framebuffers) through a bounded list so
//     a long stream's allocation rate is bounded by the number of frames
//     in flight, not the number of frames processed. It is the tree's
//     only free list, for render, remote and pario too, and holds at
//     most eight buffers a list, none larger than MaxKeptBytes.
//
// Error handling is first-error-wins: a failing stage records its
// error and cancels the shared context; every blocked send, receive
// and generator observes the cancellation and unwinds, so Wait returns
// promptly with no goroutine left behind.
//
// # Stage sizing and defaults
//
// StageConfig.Workers is mandatory and must be >= 1 — a zero config no
// longer silently runs one worker; Map fails the pipeline on an
// invalid config (Workers <= 0 or a negative Buf). Buf defaults to
// Workers. A stage's worker count is fixed for its lifetime: its body
// already runs its heavy passes on par's shared team, so more stage
// workers would only contend for the same cores.
//
// # Telemetry
//
// Every stage feeds a lock-cheap StageMetrics block: per-frame service
// time (cumulative + EWMA), queue-wait split into input-recv and
// output-send blocking, in-flight and completed counts.
// Pipeline.Snapshot diffs those counters since the previous call into
// a []StageSnapshot table in chain order — per stage: worker count,
// windowed throughput (frames/s), utilization (busy worker-time
// fraction; for a Source, 1 − send-wait) and RecvWait / SendWait
// fractions — and marks the critical-path stage (highest utilization
// × (1 − RecvWait), ties toward the front of the chain).
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline coordinates the stages of one streaming run. Create with
// New, wire stages with Source/Map/Sink, then Wait. The zero value is
// not usable.
type Pipeline struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	err      error
	resolved bool // Wait has fixed the final error
	cleanups []func()

	// Telemetry (metrics.go): stage metrics blocks in chain order, the
	// cumulative counters at the previous Snapshot, and the snapshot
	// window anchors.
	stages   []*StageMetrics
	lastCum  []stageCum
	lastSnap time.Time
	created  time.Time

	cleanupOnce sync.Once
}

// New returns a pipeline whose stages run under a child of ctx:
// cancelling ctx aborts the stream.
func New(ctx context.Context) *Pipeline {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	return &Pipeline{ctx: ctx, cancel: cancel, created: time.Now()}
}

// Cancel aborts the stream. Stages unwind promptly; Wait returns the
// cancellation error unless a stage failed first.
func (p *Pipeline) Cancel() { p.fail(context.Canceled) }

// Fail aborts the stream with the given error (first error wins), for
// callers that detect a problem outside any stage body.
func (p *Pipeline) Fail(err error) { p.fail(err) }

// fail records the first error and cancels the shared context.
func (p *Pipeline) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.cancel()
}

// Defer registers fn to run exactly once after every stage goroutine
// has exited, in reverse registration order — release hooks for
// resources a stream owns for its whole lifetime (a dialed remote
// worker connection, a temp directory). Cleanups run on the first Wait
// call to observe the drained pipeline, clean or failed.
func (p *Pipeline) Defer(fn func()) {
	p.mu.Lock()
	p.cleanups = append(p.cleanups, fn)
	p.mu.Unlock()
}

// Wait blocks until every stage goroutine has exited and returns the
// first error (nil on a clean run). A run aborted by the parent
// context reports that context's error, so a truncated stream is
// never mistaken for a completed one. Wait is safe to call from
// multiple goroutines.
func (p *Pipeline) Wait() error {
	p.wg.Wait()
	p.cleanupOnce.Do(func() {
		p.mu.Lock()
		cleanups := p.cleanups
		p.cleanups = nil
		p.mu.Unlock()
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	})
	p.mu.Lock()
	if !p.resolved {
		if p.err == nil {
			// No stage failed and nobody called Cancel/Fail: any live
			// cancellation on the shared context came from the parent.
			// Resolve exactly once — the release-cancel below must not
			// turn a later concurrent Wait's nil into a cancellation.
			p.err = context.Cause(p.ctx)
		}
		p.resolved = true
	}
	err := p.err
	p.mu.Unlock()
	p.cancel() // release the context even on clean runs
	return err
}

// go_ runs f tracked by the pipeline's WaitGroup.
func (p *Pipeline) go_(f func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		f()
	}()
}

// send delivers v unless the pipeline is cancelled first.
func send[T any](ctx context.Context, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-ctx.Done():
		return false
	}
}

// recv takes the next value; ok is false once ch closes or the
// pipeline is cancelled.
func recv[T any](ctx context.Context, ch <-chan T) (v T, ok bool) {
	select {
	case v, ok = <-ch:
		return v, ok
	case <-ctx.Done():
		return v, false
	}
}

// StageConfig sizes one stage. Workers must be explicit and >= 1 —
// the engine no longer silently picks a worker count for a zero
// config. Buf 0 means Workers. An invalid config fails the pipeline at
// construction.
type StageConfig struct {
	Name    string // used in error messages and the snapshot table
	Workers int    // concurrent applications of the stage body (>= 1)
	Buf     int    // output channel capacity (0 = Workers)
}

func (c StageConfig) buf() int {
	if c.Buf > 0 {
		return c.Buf
	}
	return c.Workers
}

// validate rejects configs the engine used to paper over: a missing
// worker count or a negative buffer.
func (c StageConfig) validate() error {
	name := c.Name
	if name == "" {
		name = "(unnamed)"
	}
	if c.Workers <= 0 {
		return fmt.Errorf("pipeline: stage %s: Workers must be >= 1, got %d", name, c.Workers)
	}
	if c.Buf < 0 {
		return fmt.Errorf("pipeline: stage %s: Buf must be >= 0, got %d", name, c.Buf)
	}
	return nil
}

// stageError wraps a stage body failure with the stage's name.
func stageError(name string, err error) error {
	if name == "" {
		return err
	}
	return fmt.Errorf("pipeline: stage %s: %w", name, err)
}

// Source starts a generator goroutine feeding a bounded channel of
// depth buf (minimum 1). emit returns false once the pipeline is
// cancelled; the generator should then return promptly (its error, if
// any, is ignored after cancellation wins). Returning a non-nil error
// fails the pipeline.
func Source[T any](p *Pipeline, buf int, gen func(ctx context.Context, emit func(T) bool) error) <-chan T {
	if buf < 1 {
		buf = 1
	}
	out := make(chan T, buf)
	m := p.newStage("source", KindSource, 1)
	p.go_(func() {
		defer close(out)
		defer m.finished.Store(true)
		emit := func(v T) bool {
			t0 := nowNanos()
			ok := send(p.ctx, out, v)
			m.sendWaitNS.Add(nowNanos() - t0)
			if ok {
				m.done.Add(1)
			}
			return ok
		}
		if err := gen(p.ctx, emit); err != nil && p.ctx.Err() == nil {
			p.fail(stageError("source", err))
		}
	})
	return out
}

// seqItem tags a value with its input sequence number so multi-worker
// stages can restore order.
type seqItem[T any] struct {
	seq int64
	val T
}

// Map connects in to a new bounded output channel through fn. Up to
// cfg.Workers frames are processed concurrently, so fn must be safe for
// concurrent use; output order always matches input order regardless
// of worker count. A fn error fails the pipeline and cancels the
// stream.
//
// Where fn runs is fn's business: a body that ships the frame to a
// remote worker and blocks for the reply keeps Workers frames in flight
// on one multiplexed connection, overlapping wide-area round trips,
// while the reorderer re-sequences the out-of-order replies back into
// frame order.
func Map[I, O any](p *Pipeline, in <-chan I, cfg StageConfig, fn func(ctx context.Context, v I) (O, error)) <-chan O {
	if err := cfg.validate(); err != nil {
		p.fail(err)
		out := make(chan O)
		close(out)
		return out
	}
	m := p.newStage(cfg.Name, KindMap, cfg.Workers)
	out := make(chan O, cfg.buf())
	// The task queue and the results are buffered to Workers+Buf, so a
	// worker never blocks on a reorderer that is itself blocked
	// downstream holding earlier seqs.
	tasks := make(chan seqItem[I], cfg.Workers+cfg.buf())
	results := make(chan seqItem[O], cfg.Workers+cfg.buf())

	// Dispatcher: tag inputs with sequence numbers. A full task queue
	// is the stage's backpressure.
	p.go_(func() {
		defer close(tasks)
		for seq := int64(0); ; seq++ {
			t0 := nowNanos()
			v, ok := recv(p.ctx, in)
			m.recvWaitNS.Add(nowNanos() - t0)
			if !ok {
				return
			}
			m.inFlight.Add(1)
			if !send(p.ctx, tasks, seqItem[I]{seq, v}) {
				m.inFlight.Add(-1)
				return
			}
		}
	})

	// Workers: apply the body; the last one out closes results.
	var live atomic.Int32
	live.Store(int32(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		p.go_(func() {
			defer func() {
				if live.Add(-1) == 0 {
					close(results)
				}
			}()
			for t := range tasks {
				if p.ctx.Err() != nil {
					m.inFlight.Add(-1)
					continue
				}
				t1 := nowNanos()
				o, err := fn(p.ctx, t.val)
				m.noteService(nowNanos()-t1, err == nil)
				if err != nil {
					m.inFlight.Add(-1)
					if p.ctx.Err() == nil {
						p.fail(stageError(cfg.Name, err))
					}
					continue
				}
				if !send(p.ctx, results, seqItem[O]{t.seq, o}) {
					m.inFlight.Add(-1)
				}
			}
		})
	}

	// Reorderer: emit results in sequence order.
	p.go_(func() {
		defer close(out)
		defer m.finished.Store(true)
		next := int64(0)
		pending := make(map[int64]O, cfg.Workers)
		for r := range results {
			pending[r.seq] = r.val
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				t0 := nowNanos()
				ok = send(p.ctx, out, v)
				m.sendWaitNS.Add(nowNanos() - t0)
				m.inFlight.Add(-1)
				if !ok {
					return
				}
				next++
			}
		}
	})
	return out
}

// Sink consumes in on a single goroutine in arrival order (which Map
// guarantees is input order), calling fn for each value. A fn error
// fails the pipeline. Use it for ordered writers at the end of a
// chain.
func Sink[T any](p *Pipeline, in <-chan T, name string, fn func(ctx context.Context, v T) error) {
	m := p.newStage(name, KindSink, 1)
	p.go_(func() {
		defer m.finished.Store(true)
		for {
			t0 := nowNanos()
			v, ok := recv(p.ctx, in)
			m.recvWaitNS.Add(nowNanos() - t0)
			if !ok {
				return
			}
			t1 := nowNanos()
			err := fn(p.ctx, v)
			m.noteService(nowNanos()-t1, err == nil)
			if err != nil {
				if p.ctx.Err() == nil {
					p.fail(stageError(name, err))
				}
				return
			}
		}
	})
}

// Stream pairs a pipeline with its typed output channel — the handle
// the core façade returns to callers. Range over Out, then call Wait;
// or Cancel mid-stream to abort.
type Stream[T any] struct {
	Out <-chan T
	p   *Pipeline
}

// NewStream wraps an output channel and its pipeline.
func NewStream[T any](p *Pipeline, out <-chan T) *Stream[T] {
	return &Stream[T]{Out: out, p: p}
}

// Wait drains any unread output and blocks until the stream has fully
// unwound, returning its first error.
func (s *Stream[T]) Wait() error {
	for range s.Out {
	}
	return s.p.Wait()
}

// Cancel aborts the stream; Wait then returns context.Canceled unless
// a stage failed first.
func (s *Stream[T]) Cancel() { s.p.Cancel() }

// Snapshot returns the underlying pipeline's per-stage telemetry table
// (see Pipeline.Snapshot) — the hook a service publishes through the
// Stats verb.
func (s *Stream[T]) Snapshot() []StageSnapshot { return s.p.Snapshot() }
