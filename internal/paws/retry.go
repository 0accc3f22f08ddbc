package paws

import (
	"time"
)

// RetryPolicy bounds how a Client retries transient failures:
// exponential backoff with jitter, capped per attempt and in attempt
// count. The zero value disables retries (single-shot), which keeps
// existing callers' timing behaviour unchanged. RetryPolicy is pure
// configuration and may be copied freely; the jitter RNG lives on the
// Client.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values < 2 mean single-shot.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms when
	// retries are enabled).
	BaseDelay time.Duration
	// MaxDelay caps any single backoff step (default 5s).
	MaxDelay time.Duration
	// Jitter is the fraction of each step drawn uniformly at random:
	// delay = step * (1 - Jitter + Jitter*U[0,1)). 0 means
	// deterministic full steps; 1 means full jitter. Values outside
	// [0,1] are clamped.
	Jitter float64
	// Seed makes the jitter stream reproducible. 0 seeds from 1 (a
	// fixed default: chaos tests demand byte-determinism, and an AP
	// gains nothing from nondeterministic jitter).
	Seed int64
	// Sleep is the wait primitive; nil means time.Sleep. Virtual-time
	// tests substitute a clock advance.
	Sleep func(time.Duration)
}

// DefaultRetry is the policy `cellfi ap` runs with: four attempts
// spanning roughly a second of backoff — small against the vacate
// deadline, large against a momentary database hiccup.
func DefaultRetry(seed int64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		Jitter:      0.5,
		Seed:        seed,
	}
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts >= 2 }

// backoff returns the wait before the next try given the 1-based
// attempt number that just failed and a uniform draw u in [0,1).
func (p RetryPolicy) backoff(attempt int, u float64) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	step := base << uint(attempt-1)
	if step <= 0 || step > max { // <= 0 catches shift overflow
		step = max
	}
	j := p.Jitter
	if j < 0 {
		j = 0
	}
	if j > 1 {
		j = 1
	}
	if j == 0 {
		return step
	}
	return time.Duration(float64(step) * (1 - j + j*u))
}

// sleep waits for d via the configured primitive.
func (p RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}
