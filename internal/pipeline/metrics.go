package pipeline

import (
	"math"
	"sync/atomic"
	"time"
)

// Telemetry — every stage a pipeline runs (Source, Map/MapExec, Sink)
// updates a StageMetrics block with per-frame service time, queue-wait
// (time blocked receiving input and sending output), in-flight count
// and an EWMA of per-frame service time. The counters are plain
// atomics: a stage's hot path pays a handful of atomic adds per frame
// and no locks. Pipeline.Snapshot diffs the cumulative counters since
// the previous snapshot into windowed rates and marks the critical
// stage — the table the remote Stats verb carries.

// ewmaAlpha is the smoothing factor for per-frame service-time EWMAs:
// ~the last 8 frames dominate, so the estimate tracks load shifts
// within a couple of snapshot windows without gyrating on one slow
// frame.
const ewmaAlpha = 0.25

// epoch anchors nowNanos: time.Since on a fixed base keeps the
// monotonic clock, so interval math is immune to wall-clock steps.
var epoch = time.Now()

func nowNanos() int64 { return int64(time.Since(epoch)) }

// ewmaUpdate folds sample into the float64-bits EWMA stored in a — a
// CAS loop so concurrent workers never lose an update and never lock.
func ewmaUpdate(a *atomic.Uint64, sample float64) {
	for {
		old := a.Load()
		next := sample
		if old != 0 {
			cur := math.Float64frombits(old)
			next = cur + ewmaAlpha*(sample-cur)
		}
		if a.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// ewmaDuration reads a float64-bits EWMA as a duration.
func ewmaDuration(a *atomic.Uint64) time.Duration {
	return time.Duration(math.Float64frombits(a.Load()))
}

// StageKind classifies a stage row in the snapshot table.
type StageKind uint8

const (
	KindSource StageKind = iota
	KindMap
	KindSink
)

func (k StageKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindMap:
		return "map"
	case KindSink:
		return "sink"
	}
	return "stage"
}

// StageMetrics is the lock-cheap telemetry block one stage updates.
// Stages write it through the helpers below; readers go through
// Pipeline.Snapshot.
type StageMetrics struct {
	name    string
	kind    StageKind
	workers int

	inFlight   atomic.Int64  // frames dispatched but not yet emitted
	done       atomic.Uint64 // frames completed successfully
	serviceNS  atomic.Int64  // cumulative time in the stage body
	recvWaitNS atomic.Int64  // cumulative time blocked receiving input
	sendWaitNS atomic.Int64  // cumulative time blocked sending output
	ewmaNS     atomic.Uint64 // float64 bits: per-frame service EWMA
	finished   atomic.Bool   // stage output closed
}

// noteService records one stage-body execution: d in the cumulative
// service counter and the EWMA; done counts only successes.
func (m *StageMetrics) noteService(d int64, succeeded bool) {
	m.serviceNS.Add(d)
	ewmaUpdate(&m.ewmaNS, float64(d))
	if succeeded {
		m.done.Add(1)
	}
}

// StageSnapshot is one row of the per-stage telemetry table: the
// windowed view of a StageMetrics since the previous Snapshot call.
// The wire form (remote protocol v8, Stats verb) and the vizclient
// -stats rendering both carry exactly these fields.
type StageSnapshot struct {
	Name    string
	Kind    StageKind
	Workers int

	// Progress. InFlight counts frames dispatched but not yet emitted;
	// Done counts frames completed over the stage's whole lifetime;
	// Finished reports that the stage's output has closed.
	InFlight int
	Done     uint64
	Finished bool

	// ServiceEWMA is the smoothed per-frame service time (all-time,
	// not windowed).
	ServiceEWMA time.Duration

	// Windowed rates over Window (the interval since the previous
	// Snapshot). Throughput is frames/s completed; Utilization is the
	// fraction of worker-time spent in the stage body (for a Source,
	// the fraction not blocked sending); RecvWait and SendWait are the
	// fractions of the window the stage's coordinator spent blocked on
	// its input and output channels.
	Window      time.Duration
	Throughput  float64
	Utilization float64
	RecvWait    float64
	SendWait    float64

	// Critical marks the stage the snapshot identifies as the current
	// critical path: the highest utilization × (1 − input idle) among
	// running stages, ties broken toward the front of the chain.
	Critical bool
}

// stageCum is the cumulative-counter state Snapshot diffs windows from.
type stageCum struct {
	service  int64
	recvWait int64
	sendWait int64
	done     uint64
}

// newStage registers a stage's metrics block in chain order. Called
// from stage constructors, before any stage goroutine starts.
func (p *Pipeline) newStage(name string, kind StageKind, workers int) *StageMetrics {
	m := &StageMetrics{name: name, kind: kind, workers: workers}
	p.mu.Lock()
	p.stages = append(p.stages, m)
	p.lastCum = append(p.lastCum, stageCum{})
	p.mu.Unlock()
	return m
}

// Snapshot returns the per-stage telemetry table in chain order:
// cumulative counters are diffed against the previous Snapshot call
// into windowed rates, and the current critical-path stage is marked.
// The window is shared across callers — concurrent pollers (two Stats
// clients) each see correct but shorter windows.
func (p *Pipeline) Snapshot() []StageSnapshot {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	last := p.lastSnap
	if last.IsZero() {
		last = p.created
	}
	window := now.Sub(last)
	p.lastSnap = now

	out := make([]StageSnapshot, len(p.stages))
	critical, best := -1, 0.0
	for i, m := range p.stages {
		cum := stageCum{
			service:  m.serviceNS.Load(),
			recvWait: m.recvWaitNS.Load(),
			sendWait: m.sendWaitNS.Load(),
			done:     m.done.Load(),
		}
		d := stageCum{
			service:  cum.service - p.lastCum[i].service,
			recvWait: cum.recvWait - p.lastCum[i].recvWait,
			sendWait: cum.sendWait - p.lastCum[i].sendWait,
			done:     cum.done - p.lastCum[i].done,
		}
		p.lastCum[i] = cum

		s := StageSnapshot{
			Name:        m.name,
			Kind:        m.kind,
			Workers:     m.workers,
			InFlight:    int(m.inFlight.Load()),
			Done:        cum.done,
			Finished:    m.finished.Load(),
			ServiceEWMA: ewmaDuration(&m.ewmaNS),
			Window:      window,
		}
		if wns := float64(window); wns > 0 && !s.Finished {
			s.Throughput = float64(d.done) / window.Seconds()
			s.RecvWait = clamp01(float64(d.recvWait) / wns)
			s.SendWait = clamp01(float64(d.sendWait) / wns)
			switch m.kind {
			case KindSource:
				// A generator is "busy" whenever it isn't blocked on its
				// output — it has no measurable body of its own.
				s.Utilization = clamp01(1 - s.SendWait)
			default:
				s.Utilization = clamp01(float64(d.service) / (wns * float64(m.workers)))
			}
			// Critical path: the busiest stage least starved of input.
			// Map/Sink stages only — a source has no input to starve on
			// and would otherwise always win.
			if m.kind != KindSource {
				if score := s.Utilization * (1 - s.RecvWait); score > best {
					best, critical = score, i
				}
			}
		}
		out[i] = s
	}
	if critical >= 0 {
		out[critical].Critical = true
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
