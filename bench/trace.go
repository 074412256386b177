package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The program under test carries no spans yet (ROADMAP item 2), so the
// benchmark records them itself around its calls into each layer's
// public functions. Spans live in memory and are written at exit.

// spanID indexes tracer.spans; noSpan is the parent of a root span and
// the id every method of a nil tracer returns.
type spanID int

const noSpan spanID = -1

// span is one timed call. A root span (parent noSpan, not a probe) is
// one unit of traced wall time on one thread of the harness: a replayed
// frame, a viewer's session. Names are "layer.operation"; the "bench."
// layer is the harness itself. A probe
// times a nested layer on the frame's real data off the blocking path:
// it is reported, but belongs to neither the wall nor the coverage.
type span struct {
	Name       string
	Frame      int
	Thread     int
	Parent     spanID
	Start, End time.Duration // since the tracer's epoch
	Probe      bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name's text before the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer collects spans from any goroutine. Every method is a no-op on
// a nil tracer, so the untraced sessions run the same code paths.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) spanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Start = time.Since(t.epoch)
	t.spans = append(t.spans, s)
	return spanID(len(t.spans) - 1)
}

// root opens a root span for one frame on one harness thread.
func (t *tracer) root(name string, frame, thread int) spanID {
	if t == nil {
		return noSpan
	}
	return t.add(span{Name: name, Frame: frame, Thread: thread, Parent: noSpan})
}

// begin opens a child span; it inherits the parent's frame and thread.
func (t *tracer) begin(name string, parent spanID) spanID {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.mu.Unlock()
	return t.add(span{Name: name, Frame: p.Frame, Thread: p.Thread, Parent: parent})
}

// probe opens a probe span for the given frame.
func (t *tracer) probe(name string, frame int) spanID {
	if t == nil {
		return noSpan
	}
	return t.add(span{Name: name, Frame: frame, Thread: probeThread, Parent: noSpan, Probe: true})
}

// probeThread is the trace-file row probes are drawn on.
const probeThread = 99

// record adds a finished root span from times taken elsewhere, as by a
// goroutine that outlives the traced session.
func (t *tracer) record(name string, frame, thread int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Frame: frame, Thread: thread, Parent: noSpan, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

func (t *tracer) end(id spanID) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// totalMs sums the durations of every span with the given name.
func (t *tracer) totalMs(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return ms(d)
}

// count is the number of spans with the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// frameMs is the per-frame mean of a span name: its total time over
// the number of distinct frames that carry it. A name that occurs
// several times in a frame (one render partial per partition) therefore
// reports the frame's sum.
func (t *tracer) frameMs(name string) float64 {
	frames := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == name {
			frames[s.Frame] = true
		}
	}
	if len(frames) == 0 {
		return 0
	}
	return t.totalMs(name) / float64(len(frames))
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover (children of one parent may overlap, so the covered
// part is the union of their intervals).
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[spanID][]span)
	for _, s := range t.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - covered(children[spanID(i)])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, hi time.Duration
	for _, s := range spans {
		lo := s.Start
		if lo < hi {
			lo = hi
		}
		if s.End > lo {
			total += s.End - lo
			hi = s.End
		}
	}
	return total
}

// wall is the traced wall time: the sum of the root spans.
func (t *tracer) wall() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent == noSpan && !s.Probe {
			d += s.dur()
		}
	}
	return d
}

// layerSelf sums self time per layer over the non-probe spans.
func (t *tracer) layerSelf() map[string]time.Duration {
	self := t.selfTimes()
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if !s.Probe {
			out[s.layer()] += self[i]
		}
	}
	return out
}

// coverage is the share of the traced wall time that lies inside a
// named child span; what is left is the root spans' own time, loop
// glue that nobody named. It is the frame-time budget check of ROADMAP
// item 1: the per-layer table is complete when this is close to one.
// (The harness's own checks are named, as bench.check, and so counted
// as explained; layer_self_share in results.json says how large they
// are.)
func (t *tracer) coverage() float64 {
	wall := t.wall()
	if wall == 0 {
		return 0
	}
	var unnamed time.Duration
	for i, self := range t.selfTimes() {
		if s := t.spans[i]; s.Parent == noSpan && !s.Probe && s.layer() == "bench" {
			unnamed += self
		}
	}
	return 1 - float64(unnamed)/float64(wall)
}

// writeChrome writes the spans as Chrome trace events (load the file
// in chrome://tracing or ui.perfetto.dev): one complete event per span,
// one row per harness thread, probes on their own row.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Thread,
			Args: map[string]any{"workload": workload, "frame": s.Frame, "id": i, "parent": int(s.Parent), "probe": s.Probe},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
