package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"admission/internal/cluster"
	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/server"
)

// TestRouterServiceFacade exercises the service.Service surface the
// serving stack does not reach directly — batch validation, Submit, the
// uniform Stats snapshot, Drain — plus the ring and backend
// accessors the binaries print at startup.
func TestRouterServiceFacade(t *testing.T) {
	ctx := context.Background()
	caps := make([]int, 24)
	for i := range caps {
		caps[i] = 4
	}
	tc := newTestCluster(t, caps, 2, 9)
	ring := tc.router.Ring()
	if ring.Backends() != 2 || ring.NumEdges() != len(caps) {
		t.Fatalf("ring reports %d backends / %d edges, want 2 / %d", ring.Backends(), ring.NumEdges(), len(caps))
	}
	ea, eb := ring.Owned(0)[0], ring.Owned(1)[0]

	reqs := []problem.Request{
		{Edges: []int{ea}, Cost: 1},
		{Edges: []int{eb}, Cost: 1},
		{Edges: []int{ea, eb}, Cost: 1},
	}
	ds, err := tc.router.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(reqs) {
		t.Fatalf("batch returned %d decisions, want %d", len(ds), len(reqs))
	}
	for i, d := range ds {
		if d.Err != nil {
			t.Fatalf("batch decision %d failed: %v", i, d.Err)
		}
	}
	// Validation is atomic: one out-of-range edge fails the whole batch
	// before anything routes.
	if _, err := tc.router.SubmitBatch(ctx, []problem.Request{{Edges: []int{len(caps) + 5}, Cost: 1}}); err == nil {
		t.Fatal("batch with an out-of-range edge was accepted")
	}

	const submitted = 10
	for i := 0; i < submitted; i++ {
		d, err := tc.router.Submit(ctx, problem.Request{Edges: []int{ring.Owned(i % 2)[0]}, Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d.Err != nil {
			t.Fatalf("submitted decision %d failed: %v", i, d.Err)
		}
	}

	stats := tc.router.Stats()
	if want := int64(len(reqs) + submitted); stats.Requests != want {
		t.Fatalf("stats count %d requests, want %d", stats.Requests, want)
	}
	if stats.Shards != 2 {
		t.Fatalf("stats report %d backends, want 2", stats.Shards)
	}
	if err := tc.router.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if tc.backends[0].Engine() == nil {
		t.Fatal("backend accessor lost its engine")
	}
	if err := tc.backends[0].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	reconcile(t, tc)
}

// TestRouterCrossShedJournalsOwedAbort: when a backend's exchange fails
// during a cross-partition request's reserve wave — not before it — the
// router cannot send the abort anywhere, so it must owe it in the journal
// and settle it at resync, leaving the ledger exact.
func TestRouterCrossShedJournalsOwedAbort(t *testing.T) {
	ctx := context.Background()
	caps := make([]int, 40)
	for i := range caps {
		caps[i] = 4
	}
	tc := newTestCluster(t, caps, 2, 13)
	ring := tc.router.Ring()
	ea, eb := ring.Owned(0)[0], ring.Owned(1)[0]

	// Warm both partitions, then fail backend 1 so the cross request's
	// own wave 1 discovers it.
	for _, e := range []int{ea, eb} {
		if _, err := tc.router.Submit(ctx, problem.Request{Edges: []int{e}, Cost: 1}); err != nil {
			t.Fatalf("warm-up on edge %d: %v", e, err)
		}
	}
	tc.gates[1].set(gateUnavailable)
	if _, err := tc.router.Submit(ctx, problem.Request{Edges: []int{ea, eb}, Cost: 1}); !errors.Is(err, cluster.ErrPartitionDown) {
		t.Fatalf("cross request with a mid-wave failure: %v, want ErrPartitionDown", err)
	}
	led := tc.router.Ledger()
	if !led.Backends[1].Down {
		t.Fatal("backend 1 not shed after its reserve exchange failed")
	}
	if led.Backends[1].Journal == 0 {
		t.Fatal("router owes backend 1 a settle, but its journal is empty")
	}
	// Backend 0's granted reserve must have been aborted immediately: its
	// edge is free again.
	if d, err := tc.router.Submit(ctx, problem.Request{Edges: []int{ea}, Cost: 1}); err != nil || !d.Accepted {
		t.Fatalf("offer on the aborted edge: %+v err %v, want accept", d, err)
	}

	tc.gates[1].set(gatePass)
	if err := tc.router.Resync(ctx); err != nil {
		t.Fatalf("resync: %v", err)
	}
	for b := range tc.backends {
		if got := tc.backends[b].OpenTxs(); got != 0 {
			t.Fatalf("backend %d left %d transactions open after resync", b, got)
		}
	}
	reconcile(t, tc)
}

// TestClientDefaultBackoffRetries covers the client's real clock path: a
// backend that answers 503 once must be retried after the policy's
// backoff (default jitter, timer-based sleep) and then succeed.
func TestClientDefaultBackoffRetries(t *testing.T) {
	acfg := core.DefaultConfig()
	acfg.Seed = 1
	be, err := cluster.NewBackend([]int{2, 2}, cluster.BackendConfig{Engine: engine.Config{Shards: 1, Algorithm: acfg}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{}, server.ClusterBackend(be))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain(context.Background())
		be.Close()
	})

	c := cluster.NewClient(ts.URL, cluster.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
	})
	ds, err := c.Submit(context.Background(), []cluster.Op{{Kind: cluster.OpOffer, Edges: []int{0}, Cost: 1}})
	if err != nil {
		t.Fatalf("submit through a transient 503: %v", err)
	}
	if len(ds) != 1 || !ds[0].Accepted {
		t.Fatalf("retried submission decided %+v, want one accept", ds)
	}
	if calls.Load() < 2 {
		t.Fatalf("backend saw %d calls, want a retry", calls.Load())
	}
}
