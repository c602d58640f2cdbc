package health

import (
	"sync"
	"testing"
	"time"
)

// clock is a manually advanced time source.
type clock struct{ t time.Time }

func (c *clock) now() time.Time { return c.t }

// TestHealthBreakerUnit drives the pool-breaker reading of an Endpoint:
// threshold failures start a hold, the hold refuses attempts, a run-out
// hold admits exactly one probe, a failed probe holds again and a success
// clears everything.
func TestHealthBreakerUnit(t *testing.T) {
	clk := &clock{t: time.Unix(0, 0)}
	e := New(Policy{Threshold: 3, Base: time.Second, Max: time.Second, Now: clk.now})

	for i := 0; i < 2; i++ {
		if !e.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		e.Observe(true)
	}
	if held, _ := e.Stats(); held {
		t.Fatal("breaker open below threshold")
	}
	if !e.Allow() {
		t.Fatal("closed breaker refused the tripping attempt")
	}
	e.Observe(true) // third consecutive: trips
	if held, trips := e.Stats(); !held || trips != 1 {
		t.Fatalf("after threshold failures: open=%v trips=%d, want open once", held, trips)
	}
	if e.Allow() {
		t.Fatal("open breaker admitted work inside the cooldown")
	}
	if !e.Deferred(clk.now()) {
		t.Fatal("hard-open breaker should refuse new work at the serving layer")
	}

	// Cooldown elapses: exactly one probe gets through — and the serving
	// layer must stop refusing, or no job would ever arrive to probe.
	clk.t = clk.t.Add(2 * time.Second)
	if e.Deferred(clk.now()) {
		t.Fatal("elapsed cooldown must re-admit new work (the probe rides on it)")
	}
	if !e.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if e.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	e.Observe(true) // probe failed: reopen
	if held, trips := e.Stats(); !held || trips != 2 {
		t.Fatalf("failed probe: open=%v trips=%d, want reopened (2 trips)", held, trips)
	}
	if e.Allow() {
		t.Fatal("reopened breaker admitted work without a fresh cooldown")
	}
	if !e.Deferred(clk.now()) {
		t.Fatal("reopened breaker should refuse new work again")
	}
	// A straggler failing inside the running hold is not a new trip.
	e.Observe(true)
	if _, trips := e.Stats(); trips != 2 {
		t.Fatalf("failure inside a running hold counted as a trip (trips=%d)", trips)
	}

	// Second probe succeeds: closed again, counters reset.
	clk.t = clk.t.Add(2 * time.Second)
	if !e.Allow() {
		t.Fatal("refused second probe")
	}
	e.Observe(false)
	if held, _ := e.Stats(); held {
		t.Fatal("successful probe did not close the breaker")
	}
	for i := 0; i < 2; i++ {
		if !e.Allow() {
			t.Fatal("closed breaker refusing work after recovery")
		}
		e.Observe(true)
	}
	if held, _ := e.Stats(); held {
		t.Fatal("consecutive counter was not reset by the successful probe")
	}
}

// TestHealthDisabledHoldsNothing: threshold 0 (the pool's zero-value
// Config) never holds, refuses or counts a trip, yet still tracks the
// failure rate.
func TestHealthDisabledHoldsNothing(t *testing.T) {
	e := New(Policy{})
	for i := 0; i < 100; i++ {
		if !e.Allow() {
			t.Fatal("disabled breaker refused work")
		}
		e.Observe(true)
	}
	if held, trips := e.Stats(); held || trips != 0 {
		t.Fatalf("disabled breaker reports open=%v trips=%d", held, trips)
	}
	if e.Deferred(time.Now()) {
		t.Fatal("disabled breaker defers")
	}
	if r := e.Rate(); r != 1 {
		t.Fatalf("rate = %v after only failures, want 1", r)
	}
}

// TestHealthDeferralWidensAndClears drives the cluster-deferral reading:
// consecutive failures widen the hold up to the cap, a success clears it
// instantly.
func TestHealthDeferralWidensAndClears(t *testing.T) {
	clk := &clock{t: time.Unix(1000, 0)}
	const maxHold = 5 * time.Second
	e := New(Policy{Threshold: 1, Base: 100 * time.Millisecond, Max: maxHold, Now: clk.now})
	now := clk.now()

	if e.Deferred(now) {
		t.Fatal("fresh endpoint is deferred")
	}
	e.Observe(true)
	first := e.until.Sub(now)
	// One failure in a one-sample window: 100ms × (1+3·1).
	if first != 400*time.Millisecond {
		t.Fatalf("first hold = %v, want 400ms", first)
	}
	if !e.Deferred(now.Add(time.Millisecond)) {
		t.Fatal("endpoint not deferred after a transient failure")
	}
	e.Observe(true)
	second := e.until.Sub(now)
	if second <= first {
		t.Fatalf("consecutive failures did not widen the deferral: %v then %v", first, second)
	}
	for i := 0; i < 20; i++ {
		e.Observe(true)
	}
	if got := e.until.Sub(now); got > maxHold {
		t.Fatalf("deferral %v exceeds the %v cap", got, maxHold)
	}
	e.Observe(false)
	if e.Deferred(now) {
		t.Fatal("success did not clear the deferral")
	}
	if e.streak != 0 {
		t.Fatalf("streak = %d after success, want 0", e.streak)
	}
}

// TestHealthRateWindow: the rate covers only the last 32 outcomes.
func TestHealthRateWindow(t *testing.T) {
	e := New(Policy{})
	if r := e.Rate(); r != 0 {
		t.Fatalf("fresh rate = %v, want 0", r)
	}
	for i := 0; i < window; i++ {
		e.Observe(true)
	}
	for i := 0; i < window/2; i++ {
		e.Observe(false)
	}
	if r := e.Rate(); r != 0.5 {
		t.Fatalf("rate = %v after half the window turned over, want 0.5", r)
	}
}

// TestHealthConcurrentReaders runs the three readers' calls against one
// Endpoint from many goroutines; under -race it pins the locking, and the
// window bookkeeping must stay consistent.
func TestHealthConcurrentReaders(t *testing.T) {
	e := New(Policy{Threshold: 2, Base: time.Millisecond, Max: 10 * time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch (g + i) % 4 {
				case 0:
					e.Observe((g+i)%3 != 0)
				case 1:
					if e.Allow() {
						e.Observe(i%5 == 0)
					}
				case 2:
					e.Deferred(time.Now())
				default:
					e.Rate()
					e.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	fails := 0
	for _, f := range e.outcomes[:e.n] {
		if f {
			fails++
		}
	}
	if e.n != window || fails != e.fails {
		t.Fatalf("window n=%d fails=%d (counted %d), want a full, consistent window", e.n, e.fails, fails)
	}
}
