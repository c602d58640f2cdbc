package client

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
)

// TestAdaptiveBackoffWidensWithErrorRate: with a fully failing recent
// window the retry delay is 4x the fixed-doubling schedule. A server
// refusing with quota_exceeded retries on exactly the fixed schedule: a
// quota refusal is the tenant's backpressure and never counts against the
// server's health.
func TestAdaptiveBackoffWidensWithErrorRate(t *testing.T) {
	alwaysDraining := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, api.Errorf(api.CodeDraining, "draining"))
	})
	alwaysQuota := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, api.Errorf(api.CodeQuotaExceeded, "at quota"))
	})

	base := 10 * time.Millisecond
	adaptive := New(alwaysDraining.URL, WithRetry(3, base))
	sleptA := instantSleep(adaptive)
	adaptive.Metrics(context.Background()) // fails; we want the schedule

	fixed := New(alwaysQuota.URL, WithRetry(3, base))
	sleptF := instantSleep(fixed)
	fixed.Metrics(context.Background())

	if len(*sleptA) != 2 || len(*sleptF) != 2 {
		t.Fatalf("schedules %v / %v, want 2 sleeps each", *sleptA, *sleptF)
	}
	if (*sleptF)[0] != base || (*sleptF)[1] != 2*base {
		t.Errorf("fixed schedule = %v, want [%v %v]", *sleptF, base, 2*base)
	}
	// Every attempt failed, so the observed rate is 1.0 and the widening
	// factor is 1+3*1 = 4.
	if (*sleptA)[0] != 4*base || (*sleptA)[1] != 8*base {
		t.Errorf("adaptive schedule = %v, want [%v %v] (4x widening)", *sleptA, 4*base, 8*base)
	}
}

// TestAdaptiveBackoffRecovers: successes drain the window, so a healthy
// client's delays converge back to the fixed schedule.
func TestAdaptiveBackoffRecovers(t *testing.T) {
	var fail atomic.Bool
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			writeErr(w, api.Errorf(api.CodeDraining, "draining"))
			return
		}
		json.NewEncoder(w).Encode(api.Metrics{})
	})
	base := 10 * time.Millisecond
	c := New(srv.URL, WithRetry(2, base))
	slept := instantSleep(c)

	fail.Store(true)
	c.Metrics(context.Background()) // 2 failing attempts: window all failure
	fail.Store(false)
	for i := 0; i < 64; i++ { // wash the window with successes
		if _, err := c.Metrics(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	fail.Store(true)
	*slept = nil
	c.Metrics(context.Background())
	if len(*slept) != 1 {
		t.Fatalf("schedule %v, want 1 sleep", *slept)
	}
	// One failure in a 32-slot window: rate 1/32, widening ≈ 1.09 — well
	// under the 4x a failing window earns.
	if got := (*slept)[0]; got < base || got > 2*base {
		t.Errorf("recovered delay = %v, want close to base %v", got, base)
	}
}

// TestRetryAfterFloorsBackoff: a server-sent Retry-After outranks the
// computed delay.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	var calls atomic.Int64
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set(api.RetryAfterHeader, "2")
			writeErr(w, api.Errorf(api.CodeQuotaExceeded, "tenant at quota"))
			return
		}
		json.NewEncoder(w).Encode(api.Metrics{Workers: 1})
	})
	c := New(srv.URL, WithRetry(2, time.Millisecond))
	slept := instantSleep(c)
	if _, err := c.Metrics(context.Background()); err != nil {
		t.Fatalf("metrics after hinted 429 = %v", err)
	}
	if len(*slept) != 1 || (*slept)[0] < 2*time.Second {
		t.Errorf("schedule %v, want one sleep >= 2s (the Retry-After floor)", *slept)
	}
}

// TestQuotaExceededIsRetryable: quota_exceeded (429) retries like the
// taxonomy says.
func TestQuotaExceededIsRetryable(t *testing.T) {
	var calls atomic.Int64
	srv := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 1 {
			writeErr(w, api.Errorf(api.CodeQuotaExceeded, "at quota"))
			return
		}
		json.NewEncoder(w).Encode(api.JobInfo{ID: "job-000001"})
	})
	c := New(srv.URL, WithRetry(3, time.Millisecond))
	instantSleep(c)
	info, err := c.Submit(context.Background(), api.SubmitRequest{Trace: []byte("x")})
	if err != nil || info.ID != "job-000001" {
		t.Fatalf("submit through quota blip = %+v, %v", info, err)
	}
}
