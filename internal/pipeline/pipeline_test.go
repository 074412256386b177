package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderPreserved: a multi-worker stage with deliberately skewed
// per-item latency must still emit in input order.
func TestMapOrderPreserved(t *testing.T) {
	p := New(context.Background())
	in := Source(p, 4, func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < 64; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	out := Map(p, in, StageConfig{Name: "square", Workers: 8}, func(_ context.Context, v int) (int, error) {
		// Early items sleep longest so workers finish out of order.
		time.Sleep(time.Duration(64-v) * 100 * time.Microsecond)
		return v * v, nil
	})
	got := Collect(p, out)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 64 {
		t.Fatalf("got %d results, want 64", len(*got))
	}
	for i, v := range *got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d (order violated)", i, v, i*i)
		}
	}
}

// TestChainedStages runs a three-stage chain and checks the data
// flows end to end.
func TestChainedStages(t *testing.T) {
	p := New(context.Background())
	a := FromSlice(p, 2, []int{1, 2, 3, 4, 5})
	b := Map(p, a, StageConfig{Workers: 2}, func(_ context.Context, v int) (int, error) {
		return v + 10, nil
	})
	c := Map(p, b, StageConfig{Workers: 3}, func(_ context.Context, v int) (string, error) {
		return fmt.Sprintf("#%d", v), nil
	})
	var sunk []string
	Sink(p, c, "gather", func(_ context.Context, v string) error {
		sunk = append(sunk, v)
		return nil
	})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"#11", "#12", "#13", "#14", "#15"}
	if len(sunk) != len(want) {
		t.Fatalf("sunk %v, want %v", sunk, want)
	}
	for i := range want {
		if sunk[i] != want[i] {
			t.Fatalf("sunk[%d] = %q, want %q", i, sunk[i], want[i])
		}
	}
}

// TestFirstErrorPropagation: a mid-stream stage failure must surface
// from Wait and stop the source.
func TestFirstErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	p := New(context.Background())
	var emitted atomic.Int64
	in := Source(p, 1, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; ; i++ {
			if !emit(i) {
				return nil
			}
			emitted.Add(1)
		}
	})
	out := Map(p, in, StageConfig{Name: "fail", Workers: 2}, func(_ context.Context, v int) (int, error) {
		if v == 5 {
			return 0, boom
		}
		return v, nil
	})
	Sink(p, out, "drain", func(_ context.Context, _ int) error { return nil })
	err := p.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	if emitted.Load() > 1000 {
		t.Errorf("source kept running after failure: emitted %d", emitted.Load())
	}
}

// TestCancellationNoGoroutineLeak: cancelling a stream mid-frame
// returns promptly and leaves no goroutines behind.
func TestCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	p := New(context.Background())
	in := Source(p, 2, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; ; i++ {
			if !emit(i) {
				return nil
			}
		}
	})
	out := Map(p, in, StageConfig{Name: "slow", Workers: 4}, func(ctx context.Context, v int) (int, error) {
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
		}
		return v, nil
	})
	s := NewStream(p, out)

	// Take a couple of results, then abort mid-stream.
	<-s.Out
	<-s.Out
	s.Cancel()

	t0 := time.Now()
	if err := s.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("Wait took %v to return after Cancel", d)
	}

	// Every stage goroutine is the pipeline's, so none outlives Wait. One
	// may still be between its WaitGroup.Done and its exit; yielding lets
	// it finish.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestParentContextCancel aborts the stream via the caller's context.
func TestParentContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(ctx)
	in := Source(p, 1, func(ctx context.Context, emit func(int) bool) error {
		for i := 0; ; i++ {
			if !emit(i) {
				return nil
			}
		}
	})
	out := Map(p, in, StageConfig{Workers: 2}, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	s := NewStream(p, out)
	<-s.Out
	cancel()
	done := make(chan error, 1)
	go func() { done <- s.Wait() }()
	select {
	case err := <-done:
		// A parent-aborted run must not look like a clean completion.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after parent cancel")
	}
}

// TestSlicePoolReuse: a recycled backing array must be reused when it
// fits, and regrown when it does not.
func TestSlicePoolReuse(t *testing.T) {
	sp := NewSlicePool[float64]()
	// Under the race detector sync.Pool deliberately drops a fraction of
	// Puts, so assert reuse statistically rather than on one round trip.
	reused := false
	for i := 0; i < 50 && !reused; i++ {
		s := sp.Get(100)
		if len(*s) != 100 {
			t.Fatalf("len = %d, want 100", len(*s))
		}
		first := &(*s)[0]
		sp.Put(s)
		s2 := sp.Get(50)
		if len(*s2) != 50 {
			t.Fatalf("len = %d, want 50", len(*s2))
		}
		reused = &(*s2)[0] == first
		sp.Put(s2)
	}
	if !reused {
		t.Error("backing array never reused for smaller request")
	}
	s3 := sp.Get(200)
	if len(*s3) != 200 {
		t.Fatalf("len = %d, want 200", len(*s3))
	}
}

// countingExecutor is a StageExecutor that tracks concurrent Applies,
// standing in for a remote executor (per-call blocking round trips,
// concurrency supplied by the stage's worker goroutines).
type countingExecutor struct {
	calls    atomic.Int64
	inFlight atomic.Int64
	peak     atomic.Int64
}

func (e *countingExecutor) Apply(ctx context.Context, v int) (int, error) {
	cur := e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	for {
		p := e.peak.Load()
		if cur <= p || e.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	e.calls.Add(1)
	select {
	case <-time.After(2 * time.Millisecond):
	case <-ctx.Done():
	}
	return v * 10, nil
}

// TestMapExecCustomExecutor: MapExec drives an arbitrary StageExecutor
// through the same ordering machinery Map uses — results arrive in
// input order, and Workers callers run concurrently (how a remote
// stage keeps several frames in flight on one connection), never more.
func TestMapExecCustomExecutor(t *testing.T) {
	p := New(context.Background())
	const n = 64
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	const workers = 8
	ex := &countingExecutor{}
	out := MapExec(p, FromSlice(p, 4, vals), StageConfig{Name: "remote", Workers: workers}, ex)
	got := Collect(p, out)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != n {
		t.Fatalf("got %d results, want %d", len(*got), n)
	}
	for i, v := range *got {
		if v != i*10 {
			t.Fatalf("result %d = %d, want %d (order violated)", i, v, i*10)
		}
	}
	if c := ex.calls.Load(); c != n {
		t.Errorf("executor ran %d times, want %d", c, n)
	}
	if pk := ex.peak.Load(); pk < 2 || pk > workers {
		t.Errorf("peak concurrent Applies = %d, want 2..%d (frames overlap, at most one per worker)", pk, workers)
	}
}

// TestDeferRunsOnceAfterDrain: cleanups registered with Defer run
// exactly once, after every stage goroutine exits, in reverse order —
// even when Wait is called from several goroutines.
func TestDeferRunsOnceAfterDrain(t *testing.T) {
	p := New(context.Background())
	var stagesLive atomic.Int64
	var order []int
	var mu sync.Mutex
	var runs atomic.Int64

	in := Source(p, 1, func(ctx context.Context, emit func(int) bool) error {
		stagesLive.Add(1)
		defer stagesLive.Add(-1)
		for i := 0; i < 10; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	Sink(p, in, "drop", func(ctx context.Context, v int) error { return nil })

	for i := 0; i < 2; i++ {
		i := i
		p.Defer(func() {
			runs.Add(1)
			if stagesLive.Load() != 0 {
				t.Error("cleanup ran while a stage goroutine was still live")
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := runs.Load(); got != 2 {
		t.Fatalf("cleanups ran %d times, want 2", got)
	}
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("cleanup order %v, want reverse registration [1 0]", order)
	}
}

// FromSlice is a Source over a fixed set of values.
func FromSlice[T any](p *Pipeline, buf int, vs []T) <-chan T {
	return Source(p, buf, func(_ context.Context, emit func(T) bool) error {
		for _, v := range vs {
			if !emit(v) {
				return nil
			}
		}
		return nil
	})
}

// Collect accumulates every value of in into a slice. The slice is
// valid only after Wait returns.
func Collect[T any](p *Pipeline, in <-chan T) *[]T {
	out := new([]T)
	Sink(p, in, "collect", func(_ context.Context, v T) error {
		*out = append(*out, v)
		return nil
	})
	return out
}
