package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errTransient = errors.New("transient")

// fastRetry keeps test backoffs far below test timeouts.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Jitter: -1}

func TestRetryEventualSuccess(t *testing.T) {
	attempts := 0
	err := Retry(context.Background(), fastRetry, nil, func(context.Context) error {
		attempts++
		if attempts < 3 {
			return errTransient
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v, want nil", err)
	}
	if attempts != 3 {
		t.Errorf("ran %d attempts, want 3", attempts)
	}
}

func TestRetryExhaustion(t *testing.T) {
	attempts := 0
	err := Retry(context.Background(), fastRetry, nil, func(context.Context) error {
		attempts++
		return errTransient
	})
	if !errors.Is(err, errTransient) {
		t.Fatalf("Retry = %v, want the last attempt's error", err)
	}
	if attempts != fastRetry.MaxAttempts {
		t.Errorf("ran %d attempts, want %d", attempts, fastRetry.MaxAttempts)
	}
}

func TestRetryNonRetryable(t *testing.T) {
	permanent := errors.New("permanent")
	attempts := 0
	err := Retry(context.Background(), fastRetry, func(err error) bool { return !errors.Is(err, permanent) },
		func(context.Context) error {
			attempts++
			return permanent
		})
	if !errors.Is(err, permanent) {
		t.Fatalf("Retry = %v, want permanent error", err)
	}
	if attempts != 1 {
		t.Errorf("ran %d attempts, want 1 (no retry on a non-retryable error)", attempts)
	}
}

func TestRetryCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pol := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour, Jitter: -1}
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, pol, nil, func(context.Context) error {
			attempts++
			return errTransient
		})
	}()
	time.Sleep(10 * time.Millisecond) // first attempt fails, backoff starts
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, errTransient) {
			t.Errorf("Retry = %v, want the attempt's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry slept through cancellation")
	}
	if attempts != 1 {
		t.Errorf("ran %d attempts, want 1", attempts)
	}
}

func TestRetryCancelledContextNoRedispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attempts := 0
	err := Retry(ctx, fastRetry, nil, func(context.Context) error {
		attempts++
		return errTransient
	})
	if !errors.Is(err, errTransient) {
		t.Fatalf("Retry = %v", err)
	}
	if attempts != 1 {
		t.Errorf("ran %d attempts against a dead context, want 1", attempts)
	}
}

// withRetry runs each Apply of ex under Retry, the way Fleet.Apply
// does. The stage machinery above (sequence tagging, re-sequencing,
// backpressure) is untouched: a frame that fails, backs off and succeeds
// on attempt three still emits exactly where its sequence number says.
func withRetry(ex StageExecutor[int, int], pol RetryPolicy) StageExecutor[int, int] {
	return ExecFunc[int, int](func(ctx context.Context, v int) (out int, err error) {
		err = Retry(ctx, pol, nil, func(ctx context.Context) error {
			o, err := ex.Apply(ctx, v)
			if err == nil {
				out = o
			}
			return err
		})
		return out, err
	})
}

// TestWithRetryInStream: a flaky executor — every frame fails on its
// first try — retried inside its stage still yields a complete,
// in-order stream, with the retries invisible in the output.
func TestWithRetryInStream(t *testing.T) {
	const frames = 20
	var mu sync.Mutex
	firstTry := make(map[int]bool)
	flaky := ExecFunc[int, int](func(_ context.Context, v int) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		if !firstTry[v] {
			firstTry[v] = true
			return 0, errTransient
		}
		return v * v, nil
	})

	p := New(context.Background())
	in := make([]int, frames)
	for i := range in {
		in[i] = i
	}
	src := FromSlice(p, 2, in)
	out := MapExec(p, src, StageConfig{Name: "flaky", Workers: 4},
		withRetry(flaky, fastRetry))
	got := Collect(p, out)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != frames {
		t.Fatalf("stream emitted %d frames, want %d", len(*got), frames)
	}
	for i, v := range *got {
		if v != i*i {
			t.Errorf("frame %d = %d, want %d (order or value lost across retry)", i, v, i*i)
		}
	}
}

// TestWithRetryExhaustionFailsStream: a permanently failing frame
// still fails the pipeline once the policy is spent.
func TestWithRetryExhaustionFailsStream(t *testing.T) {
	var attempts atomic.Int64
	dead := ExecFunc[int, int](func(_ context.Context, v int) (int, error) {
		attempts.Add(1)
		return 0, fmt.Errorf("frame %d: %w", v, errTransient)
	})
	p := New(context.Background())
	out := MapExec(p, FromSlice(p, 1, []int{0}), StageConfig{Name: "dead", Workers: 1},
		withRetry(dead, fastRetry))
	Collect(p, out)
	if err := p.Wait(); !errors.Is(err, errTransient) {
		t.Fatalf("Wait = %v, want the stage error", err)
	}
	if got := attempts.Load(); got != int64(fastRetry.MaxAttempts) {
		t.Errorf("ran %d attempts, want %d", got, fastRetry.MaxAttempts)
	}
}
