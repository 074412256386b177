package pipeline

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// balanceModel is a closed-form stand-in for a pipeline: three elastic
// stages with fixed per-frame service costs (ms). Throughput is bound
// by the slowest stage, utilization follows from cost × throughput /
// workers, and the highest-utilization stage is critical — the same
// shape Snapshot reports for a real sleep-modeled chain, but exact.
type balanceModel struct {
	names   []string
	costs   []float64 // ms per frame
	workers []int
	max     int
}

func (m *balanceModel) snapshot() []StageSnapshot {
	tput := math.Inf(1)
	for i := range m.costs {
		if r := float64(m.workers[i]) / m.costs[i]; r < tput {
			tput = r
		}
	}
	snap := make([]StageSnapshot, len(m.names))
	best, crit := -1.0, 0
	for i := range snap {
		util := m.costs[i] * tput / float64(m.workers[i])
		snap[i] = StageSnapshot{
			Name: m.names[i], Kind: KindMap,
			Workers: m.workers[i], MinWorkers: 1, MaxWorkers: m.max,
			Resizable: true, Utilization: util, Throughput: tput * 1000,
		}
		if util > best+1e-9 {
			best, crit = util, i
		}
	}
	snap[crit].Critical = true
	return snap
}

func (m *balanceModel) apply(t *testing.T, d Decision) {
	t.Helper()
	set := func(name string, n int) {
		for i, s := range m.names {
			if s == name {
				m.workers[i] = n
				return
			}
		}
		t.Fatalf("decision names unknown stage %q", name)
	}
	switch d.Kind {
	case DecisionGrow:
		set(d.Stage, d.StageWorkers)
	case DecisionMove:
		set(d.From, d.FromWorkers)
		set(d.Stage, d.StageWorkers)
	default:
		t.Fatalf("unexpected decision kind %v", d.Kind)
	}
}

func runModel(t *testing.T, ticks int) ([]Decision, []int) {
	t.Helper()
	m := &balanceModel{
		names:   []string{"partition", "extract", "render"},
		costs:   []float64{0.8, 3.2, 1.6},
		workers: []int{5, 1, 1},
		max:     7,
	}
	b := NewBalancer(BalancerOptions{Cooldown: -1})
	var log []Decision
	for i := 0; i < ticks; i++ {
		for _, d := range b.Decide(m.snapshot()) {
			m.apply(t, d)
			log = append(log, d)
		}
	}
	return log, m.workers
}

// TestBalancerConvergesOnModel drives Decide with exact synthetic
// snapshots of a badly mis-provisioned chain (5/1/1 against costs that
// want 1/4/2) and checks it converges to the hand-tuned optimum by
// pure worker moves, never exceeding the budget, then goes quiet.
func TestBalancerConvergesOnModel(t *testing.T) {
	log, workers := runModel(t, 60)
	if want := []int{1, 4, 2}; !reflect.DeepEqual(workers, want) {
		t.Fatalf("converged to %v, want %v (decisions: %v)", workers, want, log)
	}
	if len(log) != 4 {
		t.Errorf("%d decisions to converge, want 4: %v", len(log), log)
	}
	for _, d := range log {
		if d.Kind != DecisionMove {
			t.Errorf("expected only moves within budget, got %v", d)
		}
	}
	// Steady state: a longer run makes no further decisions.
	longer, _ := runModel(t, 400)
	if !reflect.DeepEqual(longer, log) {
		t.Errorf("balancer kept acting after convergence: %v vs %v", longer, log)
	}
}

// TestBalancerDeterministic replays the identical snapshot sequence
// through two fresh engines and requires byte-identical decision logs.
func TestBalancerDeterministic(t *testing.T) {
	a, _ := runModel(t, 120)
	b, _ := runModel(t, 120)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same snapshots, different decisions:\n%v\n%v", a, b)
	}
}

// TestBalancerGrowsIntoFreeBudget checks the grow branch: with budget
// above the chain's live worker count, the critical stage grows from
// slack before anyone is robbed.
func TestBalancerGrowsIntoFreeBudget(t *testing.T) {
	m := &balanceModel{
		names:   []string{"a", "b"},
		costs:   []float64{1, 4},
		workers: []int{1, 1},
		max:     8,
	}
	b := NewBalancer(BalancerOptions{Cooldown: -1, Budget: 6})
	var log []Decision
	for i := 0; i < 40; i++ {
		for _, d := range b.Decide(m.snapshot()) {
			m.apply(t, d)
			log = append(log, d)
		}
	}
	if len(log) == 0 || log[0].Kind != DecisionGrow || log[0].Stage != "b" {
		t.Fatalf("first decision %v, want grow of b", log)
	}
	if m.workers[1] != 4 {
		t.Fatalf("final workers %v, want the bottleneck at 4", m.workers)
	}
	if got := m.workers[0] + m.workers[1]; got > 6 {
		t.Fatalf("budget 6 exceeded: %d live workers", got)
	}
}

// TestBalancerPlacementFlips exercises the placement branch on
// synthetic snapshots: a saturated placeable stage that workers cannot
// help flips remote, and a degraded remote side comes home.
func TestBalancerPlacementFlips(t *testing.T) {
	b := NewBalancer(BalancerOptions{Cooldown: -1})
	sat := []StageSnapshot{{
		Name: "extract", Kind: KindMap, Workers: 2, MinWorkers: 1, MaxWorkers: 2,
		Resizable: true, Placeable: true, Critical: true, Utilization: 0.97,
	}}
	var log []Decision
	for i := 0; i < 5 && len(log) == 0; i++ {
		log = append(log, b.Decide(sat)...)
	}
	if len(log) != 1 || log[0].Kind != DecisionPlace || !log[0].Remote {
		t.Fatalf("saturated placeable stage: got %v, want place-remote", log)
	}

	degraded := []StageSnapshot{{
		Name: "extract", Kind: KindMap, Workers: 2, MinWorkers: 1, MaxWorkers: 2,
		Resizable: true, Placeable: true, Remote: true, Utilization: 0.5,
		LocalEWMA: 2 * time.Millisecond, RemoteEWMA: 9 * time.Millisecond,
	}}
	log = nil
	for i := 0; i < 5 && len(log) == 0; i++ {
		log = append(log, b.Decide(degraded)...)
	}
	if len(log) != 1 || log[0].Kind != DecisionPlace || log[0].Remote {
		t.Fatalf("degraded remote stage: got %v, want place-local", log)
	}
}

// TestStartBalancerLive runs the full loop against a real
// sleep-modeled chain: a starved bottleneck gains workers while the
// stream runs, and the output stays complete and ordered.
func TestStartBalancerLive(t *testing.T) {
	p := New(context.Background())
	const n = 300
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	fast := Map(p, FromSlice(p, 4, vals),
		StageConfig{Name: "fast", Workers: 5, MinWorkers: 1, MaxWorkers: 8},
		func(_ context.Context, v int) (int, error) {
			time.Sleep(100 * time.Microsecond)
			return v, nil
		})
	slow := Map(p, fast,
		StageConfig{Name: "slow", Workers: 1, MinWorkers: 1, MaxWorkers: 8},
		func(_ context.Context, v int) (int, error) {
			time.Sleep(800 * time.Microsecond)
			return v + 1000, nil
		})
	got := Collect(p, slow)
	var moved atomic.Int64
	p.StartBalancer(BalancerOptions{
		Interval:   5 * time.Millisecond,
		OnDecision: func(Decision) { moved.Add(1) },
	})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if moved.Load() == 0 {
		t.Error("balancer made no decisions over a starved bottleneck")
	}
	final := p.Snapshot()
	for _, s := range final {
		if s.Name == "slow" && s.Workers <= 1 {
			t.Errorf("bottleneck still at %d workers after balancing", s.Workers)
		}
	}
	if len(*got) != n {
		t.Fatalf("%d of %d frames", len(*got), n)
	}
	for i, v := range *got {
		if v != i+1000 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1000)
		}
	}
}

// flakySide counts calls and fails the first few.
type flakySide struct {
	calls atomic.Int64
	fails int64
	delay time.Duration
	bias  int
}

func (f *flakySide) Apply(ctx context.Context, v int) (int, error) {
	n := f.calls.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if n <= f.fails {
		return 0, errors.New("transient remote failure")
	}
	return v + f.bias, nil
}

// TestSwitchExecRoutesAndFallsBack pins the placement seam: routing
// follows the flag, a failing remote falls back to local (and counts
// it), and per-side EWMAs populate for the balancer's return check.
func TestSwitchExecRoutesAndFallsBack(t *testing.T) {
	local := &flakySide{}
	remote := &flakySide{fails: 2, delay: 200 * time.Microsecond}
	sw := NewSwitchExec[int, int](local, remote)

	if sw.Remote() {
		t.Fatal("switch starts remote, want local")
	}
	if v, err := sw.Apply(context.Background(), 7); err != nil || v != 7 {
		t.Fatalf("local apply = %d, %v", v, err)
	}
	sw.SetRemote(true)
	if !sw.Remote() {
		t.Fatal("SetRemote(true) did not flip")
	}
	// First two remote calls fail; both must fall back to local and
	// still return the right answer.
	for i := 0; i < 4; i++ {
		if v, err := sw.Apply(context.Background(), i); err != nil || v != i {
			t.Fatalf("apply %d while remote = %d, %v", i, v, err)
		}
	}
	if got := sw.Fallbacks(); got != 2 {
		t.Errorf("fallbacks = %d, want 2", got)
	}
	if local.calls.Load() != 3 { // 1 pre-flip + 2 fallbacks
		t.Errorf("local saw %d calls, want 3", local.calls.Load())
	}
	lo, re := sw.SideEWMA()
	if lo <= 0 || re <= 0 {
		t.Errorf("side EWMAs not populated: local=%v remote=%v", lo, re)
	}
	if re < 100*time.Microsecond {
		t.Errorf("remote EWMA %v, want >= 100µs for the slow side", re)
	}
	sw.SetRemote(false)
	sw.SetRemote(true)
	if sw.Flips() < 3 {
		t.Errorf("flips = %d, want >= 3", sw.Flips())
	}

	// A nil remote side refuses to flip out.
	solo := NewSwitchExec[int, int](local, nil)
	solo.SetRemote(true)
	if solo.Remote() {
		t.Error("switch with nil remote flipped remote")
	}
}

// TestSwitchExecCancelledContextDoesNotFallBack: a remote error caused
// by cancellation must surface, not silently retry locally.
func TestSwitchExecCancelledContextDoesNotFallBack(t *testing.T) {
	local := &flakySide{}
	remote := &flakySide{fails: 1 << 30}
	sw := NewSwitchExec[int, int](local, remote)
	sw.SetRemote(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sw.Apply(ctx, 1); err == nil {
		t.Fatal("cancelled remote apply returned nil error")
	}
	if local.calls.Load() != 0 {
		t.Errorf("local ran %d times under a dead context", local.calls.Load())
	}
	if sw.Fallbacks() != 0 {
		t.Errorf("fallbacks = %d, want 0 for cancellation", sw.Fallbacks())
	}
}

// Flips counts placement changes since construction.
func (s *SwitchExec[I, O]) Flips() uint64 { return s.flips.Load() }
