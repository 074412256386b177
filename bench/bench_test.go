package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(vs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", vs, c.q, got, c.want)
		}
	}
	if vs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g, want 7", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25 as the driver computes them", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1, 2, 4 = %g, %g, want 1, 4", q1, q3)
	}
}

// A frame of 100 with children [10,40) and [30,60) that overlap, a
// grandchild [12,20), a probe outside the frame, a second frame that
// one child fills, and a named check of the harness in the first.
func testTrace() *tracer {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return &tracer{spans: []span{
		{Name: "bench.frame", Parent: noSpan, Start: 0, End: ms(100)},
		{Name: "octree.build", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "render.points", Parent: 0, Start: ms(30), End: ms(60)},
		{Name: "sortx.pairs", Parent: 1, Start: ms(12), End: ms(20)},
		{Name: "hybrid.encode", Parent: noSpan, Start: ms(100), End: ms(150), Probe: true},
		{Name: "bench.frame", Frame: 1, Parent: noSpan, Start: ms(150), End: ms(250)},
		{Name: "octree.build", Frame: 1, Parent: 5, Start: ms(150), End: ms(250)},
		{Name: "bench.check", Parent: 0, Start: ms(60), End: ms(70)},
	}}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	tr := testTrace()
	self := tr.selfTimes()
	want := []float64{40, 22, 30, 8, 50, 0, 100, 10} // the frame loses the union [10,70), not 30+30+10
	for i, w := range want {
		if got := ms(self[i]); got != w {
			t.Errorf("self time of span %d (%s) = %g ms, want %g", i, tr.spans[i].Name, got, w)
		}
	}
	if got := ms(tr.wall()); got != 200 {
		t.Errorf("wall = %g ms, want 200: the probe is outside it", got)
	}
	if got, want := tr.coverage(), 1-40.0/200; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %g, want %g: only the frames' own 40 ms are unnamed", got, want)
	}
	if got := ms(tr.layerSelf()["bench"]); got != 50 {
		t.Errorf("harness self time = %g ms, want 50 (the frames' 40 and the check's 10)", got)
	}
	if got := tr.frameMs("octree.build"); got != 65 {
		t.Errorf("octree.build per frame = %g ms, want 65", got)
	}
	if got := tr.count("bench.frame"); got != 2 {
		t.Errorf("%d frames, want 2", got)
	}
	if got := ms(tr.layerSelf()["hybrid"]); got != 0 {
		t.Errorf("probe counted as layer self time: %g ms", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	root := tr.root("bench.frame", 0, 0)
	tr.end(tr.begin("octree.build", root))
	tr.end(tr.probe("sortx.pairs", 0))
	tr.record("hybrid.decode", 0, 0, time.Now(), time.Now())
	tr.end(root)
}

func TestJudge(t *testing.T) {
	row := func(better string, values ...float64) metricRow {
		r := newRow(metricDef{Name: "m", Unit: "ms", Better: better, Bound: 0.10}, values)
		return r
	}
	for _, c := range []struct {
		name string
		a, b metricRow
		want string
	}{
		{"lower is better, 20% slower", row(lower, 100, 101, 102), row(lower, 120, 121, 122), "worse"},
		{"lower is better, 5% slower", row(lower, 100, 101, 102), row(lower, 105, 106, 107), "same"},
		{"lower is better, faster", row(lower, 100, 101, 102), row(lower, 50, 51, 52), "same"},
		{"higher is better, 20% fewer", row(higher, 100, 101, 102), row(higher, 80, 81, 82), "worse"},
		{"higher is better, more", row(higher, 100, 101, 102), row(higher, 130, 131, 132), "same"},
		{"spread wider than the bound", row(lower, 80, 100, 120), row(lower, 90, 101, 125), "unresolved"},
		{"wide spread, but every run better", row(lower, 80, 100, 120), row(lower, 40, 50, 60), "same"},
	} {
		if got := judge(c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: %s (change %+.3f, spread %.3f), want %s", c.name, got.Verdict, got.Change, got.Spread, c.want)
		}
	}
	if v := judge(row(higher, 100), row(higher, 80)); math.Abs(v.Change-0.2) > 1e-12 {
		t.Errorf("change = %g, want +0.2 (worse) for a higher-is-better metric that fell by a fifth", v.Change)
	}
}

// BENCHMARK.json is generated from the metric tables (-spec); this
// keeps the two equal and inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: bash bench/run.sh -spec > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == lower
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		if len(m.Home) == 0 || m.Moves == "" {
			t.Errorf("%s: no home workload or no prediction", m.Name)
		}
	}
}

// TestSmoke runs every workload at smoke size with its checks on: the
// untraced run, then the traced session, which must fill every
// per-layer metric the workload is home to.
func TestSmoke(t *testing.T) {
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			res, err := runOne(wd.Name, 1, 0.01, false, smokeSizes, t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: correct=%v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.notes)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %g %s", d.Name, v.Value, v.Unit)
				}
			}

			m := metrics{}
			tr, rec, _, err := traceWorkload(wd.Name, 1, smokeSizes, t.TempDir(), m)
			if err != nil {
				t.Fatal(err)
			}
			if rec.failed != 0 || rec.attempted == 0 {
				t.Errorf("traced: %d of %d failed: %v", rec.failed, rec.attempted, rec.notes)
			}
			if c := tr.coverage(); c <= 0 || c > 1 {
				t.Errorf("coverage %g", c)
			}
			for _, d := range perLayer {
				if len(d.Home) == len(workloadDefs) {
					continue // the process and trace rows, which runTraced adds
				}
				_, ok := m[d.Name]
				if home := slices.Contains(d.Home, wd.Name); home && !ok {
					t.Errorf("%s: no value from its home workload", d.Name)
				} else if !home && ok {
					t.Errorf("%s: measured by %s, which its Home does not list", d.Name, wd.Name)
				}
			}
		})
	}
}

// A traced run prints every per-layer metric: its own at the run's
// size, the rest from the calibration pass.
func TestTracedRunFillsEveryLayer(t *testing.T) {
	out := t.TempDir()
	res, err := runOne(viewFetch, 1, 0, true, smokeSizes, t.TempDir(), out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if !res.Correct {
		t.Errorf("not correct: %v", res.notes)
	}
	if len(res.detail.Calibrated) == 0 || slices.Contains(res.detail.Calibrated, "remote.get_ms") {
		t.Errorf("calibrated = %v: want the other workloads' layers and not view_fetch's own", res.detail.Calibrated)
	}
	for _, f := range []string{"view_fetch.layers.seed1.json", "view_fetch.trace.seed1.json"} {
		if _, err := os.Stat(out + "/" + f); err != nil {
			t.Error(err)
		}
	}
}
