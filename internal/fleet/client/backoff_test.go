package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ioagent/internal/fleet/api"
)

// TestClusterDefersFailingEndpoint covers the router's spool/forward gap:
// after a member fails transiently, the very next submission must try the
// healthy member first instead of paying the failing owner's schedule
// again — and the deferred member must be retried once its backoff
// passes, never dropped.
func TestClusterDefersFailingEndpoint(t *testing.T) {
	var failHits, okHits atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		failHits.Add(1)
		w.Header().Set(api.VersionHeader, api.Current.String())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(api.Error{Code: api.CodeDraining, Message: "draining"})
	}))
	defer failing.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		okHits.Add(1)
		w.Header().Set(api.VersionHeader, api.Current.String())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{ID: "h-job-000001", Status: api.StatusQueued})
	}))
	defer healthy.Close()

	cl, err := NewCluster([]string{failing.URL, healthy.URL}, WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Pick a trace whose ring owner is the failing member, so the natural
	// failover order tries it first.
	var raw []byte
	for seed := 0; seed < 64; seed++ {
		raw = clusterTrace(t, seed)
		if cl.Route(raw)[0] == failing.URL {
			break
		}
		raw = nil
	}
	if raw == nil {
		t.Fatal("no seed routed to the failing member")
	}

	ctx := context.Background()
	if _, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw}); err != nil {
		t.Fatal(err)
	}
	if failHits.Load() != 1 || okHits.Load() != 1 {
		t.Fatalf("first submission hit fail/ok %d/%d times, want 1/1 (owner then successor)",
			failHits.Load(), okHits.Load())
	}

	// Within the backoff window the failing owner is deferred: the healthy
	// member answers first and the owner sees no traffic at all.
	if _, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw}); err != nil {
		t.Fatal(err)
	}
	if failHits.Load() != 1 {
		t.Fatalf("deferred member was still tried first (%d hits)", failHits.Load())
	}

	// After the backoff passes (1 failure in a 1-sample window: 100ms ×
	// (1+3·1) = 400ms) the member is eligible again and, as ring owner,
	// tried first.
	time.Sleep(500 * time.Millisecond)
	if _, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw}); err != nil {
		t.Fatal(err)
	}
	if failHits.Load() != 2 {
		t.Fatalf("expired deferral did not restore the member to the failover order (%d hits)", failHits.Load())
	}
}

// TestClusterQuotaExceededDoesNotDefer pins the failure classifier: a
// member refusing with quota_exceeded is answering, so the refusal reaches
// the caller, the member is not deferred, and the next submission goes to
// it first again.
func TestClusterQuotaExceededDoesNotDefer(t *testing.T) {
	var quotaHits, okHits atomic.Int64
	atQuota := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		quotaHits.Add(1)
		writeErr(w, api.Errorf(api.CodeQuotaExceeded, "tenant at quota"))
	})
	healthy := newAPIServer(t, func(w http.ResponseWriter, r *http.Request) {
		okHits.Add(1)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{ID: "h-job-000001", Status: api.StatusQueued})
	})

	cl, err := NewCluster([]string{atQuota.URL, healthy.URL}, WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var raw []byte
	for seed := 0; seed < 64; seed++ {
		raw = clusterTrace(t, seed)
		if cl.Route(raw)[0] == atQuota.URL {
			break
		}
		raw = nil
	}
	if raw == nil {
		t.Fatal("no seed routed to the quota-limited member")
	}

	ctx := context.Background()
	for i := 1; i <= 2; i++ {
		if _, err := cl.Submit(ctx, api.SubmitRequest{Trace: raw}); api.ErrorCode(err) != api.CodeQuotaExceeded {
			t.Fatalf("submission %d = %v, want quota_exceeded from the owner", i, err)
		}
		if quotaHits.Load() != int64(i) || okHits.Load() != 0 {
			t.Fatalf("submission %d hit quota/ok %d/%d times, want %d/0 (owner first, no failover)",
				i, quotaHits.Load(), okHits.Load(), i)
		}
	}
	if cl.cur.Load().clients[atQuota.URL].Health().Deferred(time.Now()) {
		t.Fatal("quota_exceeded deferred the member")
	}
}
