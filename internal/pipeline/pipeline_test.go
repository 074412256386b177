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

// TestFreeListSliceReuse: a recycled backing array must be reused when
// it fits, and regrown when it does not.
func TestFreeListSliceReuse(t *testing.T) {
	fl := NewFreeList(func() []float64 { return nil })
	s := GetSlice(fl, 100)
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	first := &s[0]
	PutSlice(fl, s)
	s2 := GetSlice(fl, 50)
	if len(s2) != 50 {
		t.Fatalf("len = %d, want 50", len(s2))
	}
	if &s2[0] != first {
		t.Error("backing array not reused for a smaller request")
	}
	PutSlice(fl, s2)
	s3 := GetSlice(fl, 200)
	if len(s3) != 200 {
		t.Fatalf("len = %d, want 200", len(s3))
	}
	if &s3[0] == first {
		t.Error("a 100-element array served a 200-element request")
	}
}

// TestFreeListBound: a list keeps at most maxFree buffers, hands back
// the ones it kept, and allocates past them.
func TestFreeListBound(t *testing.T) {
	allocs := 0
	fl := NewFreeList(func() *[64]byte { allocs++; return new([64]byte) })
	kept := make(map[*[64]byte]bool)
	for i := 0; i < maxFree+3; i++ {
		b := new([64]byte)
		if i < maxFree {
			kept[b] = true
		}
		fl.Put(b)
	}
	for i := 0; i < maxFree; i++ {
		if b := fl.Get(); !kept[b] {
			t.Fatalf("Get %d returned a buffer the list should not have kept", i)
		}
	}
	if allocs != 0 {
		t.Fatalf("%d allocations while the list held buffers", allocs)
	}
	fl.Get()
	if allocs != 1 {
		t.Errorf("an empty list allocated %d times for one Get, want 1", allocs)
	}
}

// TestFreeListKeptSize: PutSlice keeps a slice up to MaxKeptBytes —
// counted in bytes, not elements — and drops anything larger, and an
// empty slice takes no slot.
func TestFreeListKeptSize(t *testing.T) {
	bytes := NewFreeList(func() []byte { return nil })
	for _, c := range []struct {
		n    int
		kept bool
	}{
		{0, false},
		{1, true},
		{MaxKeptBytes, true},
		{MaxKeptBytes + 1, false},
	} {
		s := make([]byte, c.n)
		PutSlice(bytes, s)
		got := bytes.Get()
		if kept := cap(got) > 0 && &got[:1][0] == &s[:1][0]; kept != c.kept {
			t.Errorf("%d-byte slice: kept %v, want %v", c.n, kept, c.kept)
		}
	}
	words := NewFreeList(func() []uint64 { return nil })
	PutSlice(words, make([]uint64, MaxKeptBytes/8+1))
	if got := words.Get(); got != nil {
		t.Errorf("kept a %d-byte word slice past the %d-byte bound", 8*cap(got), MaxKeptBytes)
	}
}

// countingBody is a stage body that tracks concurrent calls, standing
// in for a remote one (per-call blocking round trips, concurrency
// supplied by the stage's worker goroutines).
type countingBody struct {
	calls    atomic.Int64
	inFlight atomic.Int64
	peak     atomic.Int64
}

func (e *countingBody) apply(ctx context.Context, v int) (int, error) {
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

// TestMapExecCustomExecutor: Map drives a blocking body the way a
// remote stage's is driven — results arrive in input order, and
// Workers bodies run concurrently (how a remote stage keeps several
// frames in flight on one connection), never more.
func TestMapExecCustomExecutor(t *testing.T) {
	p := New(context.Background())
	const n = 64
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	const workers = 8
	ex := &countingBody{}
	out := Map(p, FromSlice(p, 4, vals), StageConfig{Name: "remote", Workers: workers}, ex.apply)
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
		t.Errorf("body ran %d times, want %d", c, n)
	}
	if pk := ex.peak.Load(); pk < 2 || pk > workers {
		t.Errorf("peak concurrent bodies = %d, want 2..%d (frames overlap, at most one per worker)", pk, workers)
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
