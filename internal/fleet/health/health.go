// Package health is the fleet's one failure memory: a per-endpoint record
// of recent outcomes that answers "has this endpoint been failing?" for
// every layer that needs to know.
//
// An Endpoint keeps a ring of the last 32 outcomes (a failure rate), the
// current consecutive-failure streak, a "held until" deadline, a single
// half-open probe flag and a trip count. Three readers share it:
//
//   - the pool's circuit breaker over the LLM backend (Allow, Deferred,
//     Stats): refuse attempts while held, then admit exactly one probe;
//   - the SDK client's adaptive retry (Rate): a struggling server earns
//     a wider retry delay than a single blip;
//   - cluster failover ordering (Deferred): a member that just failed is
//     tried last until its hold passes.
//
// What counts as a failure is the caller's decision; the Endpoint only
// remembers it.
package health

import (
	"sync"
	"time"
)

const (
	// window is how many recent outcomes the failure rate covers.
	window = 32
	// maxDoublings bounds the streak doubling of the hold length
	// (base << 5 = 32x base, before rate widening).
	maxDoublings = 5
)

// Policy is an Endpoint's tunables.
type Policy struct {
	// Threshold is how many consecutive failures start a hold; <= 0
	// disables holds (the Endpoint then only tracks the failure rate).
	Threshold int
	// Base and Max bound the hold length: base << min(streak-Threshold, 5)
	// widened by (1 + 3·rate), capped at Max.
	Base, Max time.Duration
	// Now is the clock Allow and Observe read; nil means time.Now.
	Now func() time.Time
}

// Endpoint is one endpoint's failure memory. All methods are safe for
// concurrent use.
type Endpoint struct {
	threshold int
	base, max time.Duration
	now       func() time.Time

	mu       sync.Mutex
	outcomes [window]bool // true = failure
	n, idx   int
	fails    int
	streak   int       // consecutive failures
	until    time.Time // hold deadline; zero while no hold is in force
	probing  bool      // the half-open probe is in flight
	trips    int64     // holds started while no hold was running
}

// New builds an Endpoint with the given policy.
func New(p Policy) *Endpoint {
	if p.Now == nil {
		p.Now = time.Now
	}
	return &Endpoint{threshold: p.Threshold, base: p.Base, max: p.Max, now: p.Now}
}

// Observe records one outcome. A success clears the streak, the hold and
// any probe at once: the endpoint answered. A failure at or past the
// threshold (re)starts the hold from now, so a failed probe — or any
// failure once a hold has run out — counts as a fresh trip, while
// failures inside a running hold only extend it.
func (e *Endpoint) Observe(fail bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n < window {
		e.n++
	} else if e.outcomes[e.idx] {
		e.fails--
	}
	e.outcomes[e.idx] = fail
	e.idx = (e.idx + 1) % window
	if !fail {
		e.streak = 0
		e.probing, e.until = false, time.Time{}
		return
	}
	e.fails++
	e.streak++
	if e.threshold <= 0 || e.streak < e.threshold {
		return
	}
	now := e.now()
	if !now.Before(e.until) {
		e.trips++
	}
	e.probing = false
	e.until = now.Add(e.holdLocked())
}

// holdLocked is the hold length for the current streak and failure rate.
// Caller holds e.mu.
func (e *Endpoint) holdLocked() time.Duration {
	shift := e.streak - e.threshold
	if shift > maxDoublings {
		shift = maxDoublings
	}
	d := float64(e.base<<shift) * (1 + 3*e.rateLocked())
	if d > float64(e.max) {
		return e.max
	}
	return time.Duration(d)
}

// Rate is the failure fraction over the recent outcome window (0 before
// any outcome).
func (e *Endpoint) Rate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rateLocked()
}

func (e *Endpoint) rateLocked() float64 {
	if e.n == 0 {
		return 0
	}
	return float64(e.fails) / float64(e.n)
}

// Deferred reports whether the endpoint is inside a running hold at now.
// It turns false the moment the hold runs out, before any success has
// cleared it: deferral shapes ordering and admission, and a deferred
// endpoint must get work again or nothing would ever probe it.
func (e *Endpoint) Deferred(now time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return now.Before(e.until)
}

// Allow gates one attempt: always true when not held; while held, false
// until the hold runs out, then true for exactly one probe at a time.
func (e *Endpoint) Allow() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.until.IsZero() {
		return true
	}
	if e.now().Before(e.until) || e.probing {
		return false
	}
	e.probing = true
	return true
}

// Stats reports whether a hold is in force (including a run-out hold still
// waiting for its probe to succeed) and how many holds have started.
func (e *Endpoint) Stats() (held bool, trips int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.until.IsZero(), e.trips
}
