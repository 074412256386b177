// Command bench is the repo's one benchmark: six closed-loop workloads
// over the paper's two pipelines and the remote service, end-to-end
// metrics with tracing off, and a traced run (a serial replay for the
// streams) for the per-layer metrics. See README.md.
//
//	bash bench/run.sh -seed 1 -out <dir>        every workload, each in its own process
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print its result line; empty runs them all, each in its own process")
		seed    = flag.Int64("seed", 1, "seeds beam.Config.Seed, seeding.Config.Seed and the viewers' seek and orbit sequences")
		seconds = flag.Float64("seconds", runSeconds, "how long the timed sessions of a run last")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run and the per-layer metrics")
		out     = flag.String("out", "", "directory for results.json and one Chrome trace-event file per workload")
		runs    = flag.Int("runs", 1, "with no -workload: runs per workload and trace mode, run r with seed+r")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments; exit 1 if any metric is worse")
		emit    = flag.Bool("spec", false, "print BENCHMARK.json from the metric tables")
	)
	flag.Parse()
	var err error
	switch {
	case *emit:
		err = printJSON(os.Stdout, spec())
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two results.json files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *name == "":
		err = runAll(*seed, *seconds, *runs, *out)
	default:
		var res *runResult
		if res, err = runOne(*name, *seed, *seconds, *trace == 1, fullSizes, workDir(*name), *out); err == nil {
			err = res.print(os.Stdout)
			if err == nil && res.Failed > 0 {
				err = fmt.Errorf("%s: %d of %d frames failed: %v", *name, res.Failed, res.Attempted, res.notes)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. The exported fields are the
// result line the driver reads: exactly these four keys.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes  []string
	detail runDetail
}

// runDetail is what a run adds to results.json beyond the result line.
type runDetail struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Trace         bool               `json:"trace"`
	Sizes         map[string]any     `json:"sizes"`
	Sessions      int                `json:"sessions,omitempty"`
	TimedSeconds  float64            `json:"timed_seconds,omitempty"`
	Setups        []float64          `json:"setup_s_samples,omitempty"`
	LatencyN      int                `json:"latency_samples,omitempty"`
	LatencyQ      [3]float64         `json:"latency_quartiles_ms,omitempty"`
	FirstFrameN   int                `json:"first_frame_samples,omitempty"`
	FirstFrameQ   [3]float64         `json:"first_frame_quartiles_ms,omitempty"`
	LatencyP90    float64            `json:"latency_p90_ms,omitempty"`
	CPUMsPerFrame float64            `json:"cpu_ms_per_frame,omitempty"`
	FailedShare   float64            `json:"failed_share"`
	LayerShare    map[string]float64 `json:"layer_self_share,omitempty"`
	Calibrated    []string           `json:"calibrated,omitempty"`
	Notes         []string           `json:"notes,omitempty"`
	Modeled       bool               `json:"modeled"`
	ResultMetrics map[string]float64 `json:"metrics"`
}

func (r *runResult) print(w *os.File) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// seal turns measured values into the result line, refusing a metric
// that is missing or not a number: every run prints every metric of
// its mode.
func (r *runResult) seal(defs []metricDef, m metrics, rec *recorder) error {
	r.Metrics = map[string]metricValue{}
	r.detail.ResultMetrics = map[string]float64{}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: no value (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
		r.detail.ResultMetrics[d.Name] = v
	}
	r.Attempted, r.Failed, r.notes = rec.attempted, rec.failed, rec.notes
	r.Correct = rec.failed == 0 && rec.attempted > 0
	r.detail.Notes = rec.notes
	if rec.attempted > 0 {
		r.detail.FailedShare = float64(rec.failed) / float64(rec.attempted)
	}
	return nil
}

// workDir is where a run keeps its files: inside the directory the
// benchmark is run from, which for the driver is the checkout.
func workDir(name string) string {
	return filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
}

// runOne runs one workload in this process, keeping its files under
// dir, and writes the run's detail (and trace) into out when given.
func runOne(name string, seed int64, seconds float64, traced bool, sz sizes, dir, out string) (*runResult, error) {
	defer os.RemoveAll(dir)
	res := &runResult{detail: runDetail{Workload: name, Seed: seed, Trace: traced}}
	var err error
	if traced {
		err = runTraced(res, name, seed, sz, dir, out)
	} else {
		err = runEndToEnd(res, name, seed, seconds, sz, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if out != "" {
		mode := "e2e"
		if traced {
			mode = "layers"
		}
		if err := writeJSON(filepath.Join(out, fmt.Sprintf("%s.%s.seed%d.json", name, mode, seed)), res.detail); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Set-up is repeated so that its time can be reported as a median: at
// least minSetups times, and for the workloads whose set-up is a few
// milliseconds until setupBudget is spent, up to maxSetups.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = 1500 * time.Millisecond
)

// runEndToEnd is the untraced run: set-up (repeated), one untimed
// warm-up session, timed sessions for the given time, the untimed
// checks.
func runEndToEnd(res *runResult, name string, seed int64, seconds float64, sz sizes, dir string) error {
	var w workload
	var wire wireCount
	var setups []float64
	var spent time.Duration
	for k := 0; ; k++ {
		var err error
		if w, err = newWorkload(name, seed, sz, filepath.Join(dir, fmt.Sprint(k)), &wire); err != nil {
			return err
		}
		start := time.Now()
		err = w.setup()
		d := time.Since(start)
		if err != nil {
			w.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
		if n := k + 1; n >= maxSetups || n >= minSetups && spent >= setupBudget {
			break
		}
		w.close()
	}
	defer w.close()

	w.session(0, &recorder{}, nil) // warm-up
	runtime.GC()                   // start every run's timed region from a collected heap
	rec := &recorder{}
	wire0 := wire.total()
	before := readProc()
	start := time.Now()
	sessions := 0
	var sessionFPS []float64 // per session: frames ÷ wall
	for time.Since(start).Seconds() < seconds {
		sessions++
		f0, t0 := rec.frames, time.Now()
		w.session(sessions, rec, nil)
		if n := rec.frames - f0; n > 0 {
			sessionFPS = append(sessionFPS, float64(n)/time.Since(t0).Seconds())
		}
	}
	rec.wall = time.Since(start)
	after := readProc()
	wired := wire.total() - wire0
	if err := w.finish(rec); err != nil {
		return fmt.Errorf("checks: %w", err)
	}
	if rec.frames <= 0 {
		return fmt.Errorf("no frame survived: %v", rec.notes)
	}

	f := float64(rec.frames)
	bytes := rec.localBytes
	if wired > 0 {
		bytes = float64(wired) / f
	}
	// The timings are medians over the run: of the sessions' throughputs,
	// of the frames' latencies, of the sessions' first frames. A burst of
	// load from the host's other tenants that lasts less than half a run
	// then moves none of them. The counts are totals over the run.
	m := metrics{
		"setup_s":              median(setups),
		"frames_per_s":         median(sessionFPS),
		"frame_latency_p50_ms": median(rec.lat),
		"first_frame_ms":       median(rec.first),
		"bytes_per_frame":      bytes,
		"allocs_per_frame":     float64(after.mallocs-before.mallocs) / f,
	}
	d := &res.detail
	d.Sizes, d.Sessions, d.TimedSeconds, d.Setups = w.describe(), sessions, rec.wall.Seconds(), setups
	d.LatencyN, d.LatencyQ = len(rec.lat), threeQuartiles(rec.lat)
	d.FirstFrameN, d.FirstFrameQ = len(rec.first), threeQuartiles(rec.first)
	d.LatencyP90 = quantile(rec.lat, 0.9)
	d.CPUMsPerFrame = ms(after.cpu-before.cpu) / f
	return res.seal(endToEnd, m, rec)
}

func threeQuartiles(vs []float64) [3]float64 {
	return [3]float64{quantile(vs, 0.25), quantile(vs, 0.5), quantile(vs, 0.75)}
}

// runTraced is the traced run: set-up, a warm-up session, the untraced
// reference sessions, then the workload's traced session or serial
// replay with its probes. Layers outside the workload's chain are then
// filled by a calibration pass: the other workloads' traced runs at
// smoke size, so that every per-layer metric of the benchmark is a
// measurement in every run. Read a layer under its home workload.
func runTraced(res *runResult, name string, seed int64, sz sizes, dir, out string) error {
	m := metrics{}
	tr, rec, describe, err := traceWorkload(name, seed, sz, dir, m)
	if err != nil {
		return err
	}
	m["trace.coverage"] = tr.coverage()
	if _, ok := m["trace.overhead_share"]; !ok {
		m["trace.overhead_share"] = 1 - tr.coverage() // streams: what the replay's spans do not explain
	}
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["proc.num_cpu"] = float64(runtime.NumCPU())
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := tr.writeChrome(filepath.Join(out, fmt.Sprintf("%s.trace.seed%d.json", name, seed)), name); err != nil {
			return err
		}
	}

	d := &res.detail
	d.Sizes = describe
	d.LayerShare = map[string]float64{}
	for layer, self := range tr.layerSelf() {
		d.LayerShare[layer] = float64(self) / float64(tr.wall())
	}
	for _, wd := range workloadDefs {
		if wd.Name == name {
			continue
		}
		cm := metrics{}
		if _, _, _, err := traceWorkload(wd.Name, seed, smokeSizes, filepath.Join(dir, "calibrate-"+wd.Name), cm); err != nil {
			return fmt.Errorf("calibration pass, %s: %w", wd.Name, err)
		}
		for k, v := range cm {
			if _, ok := m[k]; !ok {
				m[k] = v
				d.Calibrated = append(d.Calibrated, k)
			}
		}
	}
	sort.Strings(d.Calibrated)
	return res.seal(perLayer, m, rec)
}

// maxRefSessions caps the reference sessions of a traced run.
const maxRefSessions = 10

// traceWorkload sets one workload up and runs its warm-up, its untraced
// reference sessions (until they hold sz.refSamples latencies) and its
// traced session, filling m with the workload's per-layer metrics.
func traceWorkload(name string, seed int64, sz sizes, dir string, m metrics) (*tracer, *recorder, map[string]any, error) {
	w, err := newWorkload(name, seed, sz, dir, &wireCount{})
	if err != nil {
		return nil, nil, nil, err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	w.session(0, &recorder{}, nil) // warm-up
	ref := &recorder{}
	before := readProc()
	start := time.Now()
	sessions := 0
	for sessions == 0 || len(ref.lat) < sz.refSamples && sessions < maxRefSessions {
		sessions++
		w.session(sessions, ref, nil)
	}
	ref.wall = time.Since(start)
	if after := readProc(); ref.frames > 0 {
		m["proc.alloc_mb_per_frame"] = float64(after.allocBytes-before.allocBytes) / 1e6 / float64(ref.frames)
		m["cpu_ms_per_frame"] = ms(after.cpu-before.cpu) / float64(ref.frames)
	}
	m["frame_latency_p90_ms"] = quantile(ref.lat, 0.9)
	before = readProc()
	tr := newTracer()
	if err := w.traced(sessions+1, tr, ref, m); err != nil {
		return nil, nil, nil, fmt.Errorf("traced session: %w", err)
	}
	after := readProc()
	m["proc.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["proc.gc_pause_ms"] = ms(after.gcPause - before.gcPause)
	return tr, ref, w.describe(), nil
}

func printJSON(w *os.File, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// writeJSON writes v on one line: results.json holds every run's value
// of every metric, which indenting would triple.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
