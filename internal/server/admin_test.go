package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/wal"
)

const testToken = "sekrit-42"

// adminDo sends one admin-plane request with the given token ("" omits the
// Authorization header) and decodes a JSON body into out when non-nil.
func adminDo(t *testing.T, method, url, token string, body any, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, url, err)
		}
	}
	return resp
}

func TestAdminTokenValidation(t *testing.T) {
	for _, bad := range []string{" ", "\t", "  \n ", "with space", "ctrl\x01char", "tab\tbed"} {
		if _, err := New(Config{AdminToken: bad}, Admission(walEngine(t, []int{4, 4}))); err == nil {
			t.Fatalf("AdminToken %q accepted", bad)
		}
	}
	// The zero value disables the admin plane and is valid.
	eng := walEngine(t, []int{4, 4})
	defer eng.Close()
	s, err := New(Config{}, Admission(eng))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := adminDo(t, http.MethodGet, ts.URL+"/admin/v1/occupancy", "", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("admin route on a token-less server: %d, want 404", resp.StatusCode)
	}
}

// TestAdminUnauthenticatedMutatesNothing is the E20 401 criterion at unit
// scope: every admin mutation without (or with a wrong) token answers 401
// and leaves capacity and pause state untouched.
func TestAdminUnauthenticatedMutatesNothing(t *testing.T) {
	caps := []int{4, 4, 4, 4}
	eng, _, ts := newTestServer(t, caps, 2, Config{AdminToken: testToken})

	for _, token := range []string{"", "wrong-token"} {
		for _, route := range []struct {
			method, path string
			body         any
		}{
			{http.MethodPost, "/admin/v1/capacity", ResizeRequestJSON{Delta: 5}},
			{http.MethodPost, "/admin/v1/pause", nil},
			{http.MethodPost, "/admin/v1/resume", nil},
			{http.MethodPost, "/admin/v1/snapshot", nil},
			{http.MethodGet, "/admin/v1/occupancy", nil},
		} {
			resp := adminDo(t, route.method, ts.URL+route.path, token, route.body, nil)
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("%s %s with token %q: %d, want 401", route.method, route.path, token, resp.StatusCode)
			}
			if resp.Header.Get("WWW-Authenticate") == "" {
				t.Fatalf("%s %s: 401 without WWW-Authenticate", route.method, route.path)
			}
		}
	}
	// Nothing mutated: capacities at construction, intake not paused.
	for e, c := range eng.Capacities() {
		if c != caps[e] {
			t.Fatalf("edge %d: capacity %d after unauthenticated requests, want %d", e, c, caps[e])
		}
	}
	resp, err := http.Post(ts.URL+"/v1/admission", "application/json", strings.NewReader(`{"edges":[0],"cost":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submission after unauthenticated pause attempt: %d, want 200", resp.StatusCode)
	}
}

// TestAdminStatsAndMetricsGated: with a token configured, the read-only
// occupancy-leaking routes require it too; /healthz stays open.
func TestAdminStatsAndMetricsGated(t *testing.T) {
	_, _, ts := newTestServer(t, []int{4, 4}, 1, Config{AdminToken: testToken})

	for _, path := range []string{"/v1/admission/stats", "/metrics"} {
		resp := adminDo(t, http.MethodGet, ts.URL+path, "", nil, nil)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("GET %s without token: %d, want 401", path, resp.StatusCode)
		}
		resp = adminDo(t, http.MethodGet, ts.URL+path, testToken, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with token: %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with token configured: %d, want 200 (stays open)", resp.StatusCode)
	}
}

// TestAdminStatsOpenWithoutToken pins the pre-admin-plane behaviour: no
// token, open stats and metrics.
func TestAdminStatsOpenWithoutToken(t *testing.T) {
	_, _, ts := newTestServer(t, []int{4, 4}, 1, Config{})
	for _, path := range []string{"/v1/admission/stats", "/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s on token-less server: %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestAdminCapacityResize(t *testing.T) {
	caps := []int{4, 4, 4, 4}
	eng, _, ts := newTestServer(t, caps, 2, Config{AdminToken: testToken})

	// Grow one edge.
	edge := 1
	var rr ResizeResponseJSON
	resp := adminDo(t, http.MethodPost, ts.URL+"/admin/v1/capacity", testToken,
		ResizeRequestJSON{Edge: &edge, Delta: 3}, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grow: %d", resp.StatusCode)
	}
	if rr.Applied != 3 || rr.Capacity != 7 || len(rr.Preempted) != 0 {
		t.Fatalf("grow response %+v, want applied 3, capacity 7", rr)
	}

	// Fill edge 0 to its capacity, then shrink it: drain semantics must
	// preempt and the ledger must reconcile (applied = capacity removed).
	ctx := context.Background()
	for i := 0; i < caps[0]; i++ {
		d, err := eng.Submit(ctx, problem.Request{Edges: []int{0}, Cost: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Accepted {
			t.Fatalf("setup accept %d refused", i)
		}
	}
	edge = 0
	resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/capacity", testToken,
		ResizeRequestJSON{Edge: &edge, Delta: -2}, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shrink: %d", resp.StatusCode)
	}
	if rr.Applied != 2 || rr.Capacity != 2 {
		t.Fatalf("shrink response %+v, want applied 2, capacity 2", rr)
	}
	// Shrinking a full edge must evict at least the removed units; the
	// randomized rounding repair may preempt more.
	if len(rr.Preempted) < 2 {
		t.Fatalf("shrink of a full edge preempted %v, want >= 2 victims", rr.Preempted)
	}
	st := eng.Snapshot()
	if st.Capacities[0] != 2 || st.Loads[0] > st.Capacities[0] {
		t.Fatalf("post-shrink edge 0: load %d cap %d, want cap 2 and load <= cap", st.Loads[0], st.Capacities[0])
	}

	// All-edges resize plus bad-delta validation.
	resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/capacity", testToken,
		ResizeRequestJSON{Delta: 1}, &rr)
	if resp.StatusCode != http.StatusOK || rr.Applied != len(caps) || rr.Edge != engine.AllEdges {
		t.Fatalf("grow-all: %d, %+v", resp.StatusCode, rr)
	}
	resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/capacity", testToken,
		ResizeRequestJSON{Delta: 0}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delta 0: %d, want 400", resp.StatusCode)
	}
}

func TestAdminPauseResume(t *testing.T) {
	_, _, ts := newTestServer(t, []int{4, 4}, 1, Config{AdminToken: testToken})

	submit := func() int {
		resp, err := http.Post(ts.URL+"/v1/admission", "application/json", strings.NewReader(`{"edges":[0],"cost":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	var pj PausedJSON
	resp := adminDo(t, http.MethodPost, ts.URL+"/admin/v1/pause", testToken, nil, &pj)
	if resp.StatusCode != http.StatusOK || !pj.Paused {
		t.Fatalf("pause: %d %+v", resp.StatusCode, pj)
	}
	if code := submit(); code != http.StatusServiceUnavailable {
		t.Fatalf("submission while paused: %d, want 503", code)
	}
	// Healthz stays 200 while paused, reporting the state.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || health["status"] != "paused" {
		t.Fatalf("healthz while paused: %d %v, want 200/paused", hr.StatusCode, health)
	}

	resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/resume", testToken, nil, &pj)
	if resp.StatusCode != http.StatusOK || pj.Paused {
		t.Fatalf("resume: %d %+v", resp.StatusCode, pj)
	}
	if code := submit(); code != http.StatusOK {
		t.Fatalf("submission after resume: %d, want 200", code)
	}
}

func TestAdminOccupancy(t *testing.T) {
	caps := []int{3, 3, 3, 3}
	eng, _, ts := newTestServer(t, caps, 2, Config{AdminToken: testToken})
	for i := 0; i < 3; i++ {
		if _, err := eng.Submit(context.Background(), problem.Request{Edges: []int{i}, Cost: 500}); err != nil {
			t.Fatal(err)
		}
	}

	var occ OccupancyJSON
	resp := adminDo(t, http.MethodGet, ts.URL+"/admin/v1/occupancy", testToken, nil, &occ)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("occupancy: %d", resp.StatusCode)
	}
	if occ.Paused || occ.Draining {
		t.Fatalf("fresh server reports paused/draining: %+v", occ)
	}
	if fmt.Sprint(occ.Workloads) != "[admission]" {
		t.Fatalf("workloads %v", occ.Workloads)
	}
	adm := occ.Admission
	if adm == nil {
		t.Fatal("no admission occupancy block")
	}
	if adm.Durable {
		t.Fatal("in-memory mount reported durable")
	}
	if adm.Capacity != 12 || len(adm.Edges) != len(caps) || len(adm.Shards) != 2 {
		t.Fatalf("occupancy block %+v", adm)
	}
	var load int
	for _, e := range adm.Edges {
		if e.Free != e.Capacity-e.Load || e.Free < 0 {
			t.Fatalf("edge row %+v inconsistent", e)
		}
		load += e.Load
	}
	if load != adm.Load || adm.Free != adm.Capacity-adm.Load {
		t.Fatalf("totals inconsistent: %+v vs summed load %d", adm, load)
	}
}

// TestAdminDurable: on a WAL-backed mount the snapshot trigger works (and
// compacts the log at a digest-stable point) while capacity resizes are
// refused with 409.
func TestAdminDurable(t *testing.T) {
	caps := []int{4, 4}
	dir := t.TempDir()
	eng := walEngine(t, caps)
	log, err := wal.Open(dir, wal.Options{Kind: wal.KindAdmission, Fingerprint: eng.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	info, err := RecoverAdmission(log, eng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{AdminToken: testToken},
		AdmissionDurable(eng, log, DurableOptions{Replay: info}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Drain(context.Background())
		_ = log.Close()
		eng.Close()
	}()

	c := NewAdmissionClient(ts.URL, 1)
	if _, err := c.Submit(context.Background(), []problem.Request{
		{Edges: []int{0}, Cost: 1}, {Edges: []int{1}, Cost: 2},
	}); err != nil {
		t.Fatal(err)
	}

	// Resize refused on a durable mount, and nothing changes.
	resp := adminDo(t, http.MethodPost, ts.URL+"/admin/v1/capacity", testToken,
		ResizeRequestJSON{Delta: 1}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resize on durable mount: %d, want 409", resp.StatusCode)
	}
	for e, cp := range eng.Capacities() {
		if cp != caps[e] {
			t.Fatalf("edge %d capacity %d after refused resize, want %d", e, cp, caps[e])
		}
	}

	// Snapshot trigger compacts the log under the decision lock.
	if n := log.RecordsSinceSnapshot(); n != 2 {
		t.Fatalf("records since snapshot before trigger: %d, want 2", n)
	}
	var sr SnapshotResponseJSON
	resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/snapshot", testToken, nil, &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot trigger: %d", resp.StatusCode)
	}
	if fmt.Sprint(sr.Workloads) != "[admission]" {
		t.Fatalf("snapshotted workloads %v", sr.Workloads)
	}
	if n := log.RecordsSinceSnapshot(); n != 0 {
		t.Fatalf("records since snapshot after trigger: %d, want 0", n)
	}

	// Occupancy reports the mount durable.
	var occ OccupancyJSON
	adminDo(t, http.MethodGet, ts.URL+"/admin/v1/occupancy", testToken, nil, &occ)
	if occ.Admission == nil || !occ.Admission.Durable {
		t.Fatalf("occupancy of durable mount: %+v", occ.Admission)
	}
}

// TestAdminSnapshotNotDurable: the trigger on an in-memory mount is a 409
// when named explicitly and a 409 when nothing durable is mounted at all.
func TestAdminSnapshotNotDurable(t *testing.T) {
	_, _, ts := newTestServer(t, []int{4, 4}, 1, Config{AdminToken: testToken})
	resp := adminDo(t, http.MethodPost, ts.URL+"/admin/v1/snapshot", testToken,
		SnapshotRequestJSON{Workload: WorkloadAdmission}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot of in-memory workload: %d, want 409", resp.StatusCode)
	}
	resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/snapshot", testToken, nil, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot with nothing durable: %d, want 409", resp.StatusCode)
	}
	resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/snapshot", testToken,
		SnapshotRequestJSON{Workload: "nope"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot of unknown workload: %d, want 404", resp.StatusCode)
	}
}
