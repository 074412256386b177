package pipeline

import (
	"context"
	"math/rand"
	"time"
)

// RetryPolicy bounds how a transiently failing stage application is
// retried: up to MaxAttempts total tries, sleeping an exponentially
// growing, jittered delay between them. The zero value is a usable
// default (3 attempts, 50ms base doubling to a 2s cap, ±50% jitter).
//
// Retrying is what turns a lost frame into a re-dispatched frame
// instead of a dead stream: the distributed extract stage wraps its
// fleet dispatch in this policy, so a worker crash mid-frame costs one
// backoff, not the run. Because MapExec re-sequences results by input
// sequence number, a retried frame — however late it lands — still
// emits in order, and the output stays bit-identical to a run with no
// failures at all.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included
	// (<= 0 means 3). Retrying stops as soon as an attempt succeeds,
	// the error is classified non-retryable, or the context dies.
	MaxAttempts int
	// BaseDelay is the sleep before the second attempt (<= 0 means
	// 50ms); it doubles each retry.
	BaseDelay time.Duration
	// MaxDelay caps the grown delay (<= 0 means 2s).
	MaxDelay time.Duration
	// Jitter widens each delay by a uniformly random fraction of
	// itself in [0, Jitter], decorrelating the retry storms of many
	// concurrent frames after one shared failure. 0 means the default
	// 0.5; negative disables jitter. Every Retry call derives its own
	// rand.Rand from a fixed seed — the package-global math/rand stream
	// is never consulted — so retry timing is reproducible run to run
	// and failover tests need no sleeps to line up under -race.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// delay returns the jittered backoff before attempt n+1 (n counts
// completed attempts, so n >= 1). rng may be nil when jitter is
// disabled.
func (p RetryPolicy) delay(n int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = p.MaxDelay
	}
	if p.Jitter > 0 && rng != nil {
		d += time.Duration(p.Jitter * rng.Float64() * float64(d))
	}
	return d
}

// Retry runs f under pol: on a retryable error it sleeps the policy's
// backoff and tries again, up to the attempt bound. retryable
// classifies errors (nil means every error retries); context errors
// never retry — a cancelled pipeline must unwind, not back off. The
// last attempt's error is returned.
func Retry(ctx context.Context, pol RetryPolicy, retryable func(error) bool, f func(ctx context.Context) error) error {
	pol = pol.withDefaults()
	var rng *rand.Rand // allocated only if an attempt actually backs off
	for attempt := 1; ; attempt++ {
		err := f(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The attempt failed because (or while) the caller's context
			// died; report the attempt's error, but never re-dispatch
			// work nobody wants.
			return err
		}
		if attempt >= pol.MaxAttempts || (retryable != nil && !retryable(err)) {
			return err
		}
		if pol.Jitter > 0 && rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		t := time.NewTimer(pol.delay(attempt, rng))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}
