package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/rng"
	"admission/internal/setcover"
)

// newCoverServer stands up an admission engine + cover engine behind one
// registry-based Server (both workloads mounted).
func newCoverServer(t testing.TB, shards int, seed uint64) (*coverengine.Engine, *setcover.Instance, []int, *httptest.Server) {
	t.Helper()
	r := rng.New(seed)
	ins, err := setcover.RandomInstance(20, 36, 0.3, 3, false, r)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := setcover.RandomArrivals(ins, 80, 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := coverengine.New(ins, coverengine.Config{Shards: shards, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.DefaultConfig()
	acfg.Seed = 1
	eng, err := engine.New([]int{4, 4}, engine.Config{Shards: 1, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, Admission(eng), Cover(cov))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain(context.Background())
		eng.Close()
		cov.Close()
	})
	return cov, ins, arrivals, ts
}

// TestCoverLoopbackReconciles serves a full arrival sequence over HTTP and
// reconciles the client-visible decision stream against the cover engine's
// ledger and the /metrics counters.
func TestCoverLoopbackReconciles(t *testing.T) {
	cov, ins, arrivals, ts := newCoverServer(t, 2, 5)
	client := NewCoverClient(ts.URL, 2)
	defer client.CloseIdle()

	report, err := RunLoad(context.Background(), NewCoverClient, LoadConfig[int]{
		BaseURL: ts.URL,
		Items:   arrivals,
		Conns:   2,
		Batch:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Decided != int64(len(arrivals)) {
		t.Fatalf("decided %d of %d arrivals", report.Decided, len(arrivals))
	}
	st := cov.Snapshot()
	if st.Arrivals+st.Errors != int64(len(arrivals)) {
		t.Fatalf("engine saw %d+%d arrivals, client sent %d", st.Arrivals, st.Errors, len(arrivals))
	}
	if report.Errors != st.Errors {
		t.Fatalf("client saw %d errors, engine %d", report.Errors, st.Errors)
	}
	// The decision stream's bought sets are exactly the ledger growth since
	// construction (phase-1 rejections are bought before any arrival).
	phase1 := int64(st.ChosenSets) - report.SetsBought
	if phase1 < 0 {
		t.Fatalf("client saw %d sets bought, ledger holds %d", report.SetsBought, st.ChosenSets)
	}
	var stats CoverStatsJSON
	if err := client.Stats(context.Background(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Arrivals != st.Arrivals || stats.ChosenSets != st.ChosenSets || stats.Cost != st.Cost {
		t.Fatalf("/v1/cover/stats %+v does not match engine %+v", stats, st)
	}
	if stats.Mode != "reduction" || stats.Shards != 2 || stats.Elements != ins.N || stats.Sets != ins.M() {
		t.Fatalf("/v1/cover/stats shape wrong: %+v", stats)
	}
	metricsText, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metricsText, "acserve_cover_decisions_total"); got != float64(st.Arrivals) {
		t.Fatalf("cover decisions metric %v, engine %d", got, st.Arrivals)
	}
	if got := metricValue(t, metricsText, "acserve_cover_errors_total"); got != float64(st.Errors) {
		t.Fatalf("cover errors metric %v, engine %d", got, st.Errors)
	}
	if got := metricValue(t, metricsText, "acserve_cover_sets_chosen_total"); got != float64(report.SetsBought) {
		t.Fatalf("cover sets metric %v, client saw %v", got, report.SetsBought)
	}
	// The uniform service stats agree with the ledger too.
	svc := cov.Stats()
	if svc.Accepted != st.Arrivals || svc.Errors != st.Errors || svc.Objective != st.Cost {
		t.Fatalf("uniform service stats %+v disagree with snapshot %+v", svc, st)
	}
}

// TestCoverNotEnabled checks the cover endpoints 404 cleanly on a server
// without a cover workload registered.
func TestCoverNotEnabled(t *testing.T) {
	_, _, ts := newTestServer(t, []int{4}, 1, Config{})
	resp, err := http.Post(ts.URL+"/v1/cover", "application/json", strings.NewReader("[0]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/cover without cover workload: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/cover/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cover/stats without cover workload: %d, want 404", resp.StatusCode)
	}
}

// TestCoverMalformed checks malformed and invalid cover submissions map to
// 4xx without reaching the engine.
func TestCoverMalformed(t *testing.T) {
	cov, _, _, ts := newCoverServer(t, 1, 9)
	before := cov.Snapshot()
	cases := []struct {
		name, body string
		status     int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"empty body", "", http.StatusBadRequest},
		{"empty array", "[]", http.StatusBadRequest},
		{"negative element", "[-1]", http.StatusBadRequest},
		{"out of range", `[0, 99999]`, http.StatusBadRequest},
		{"float element", "[1.5]", http.StatusBadRequest},
		{"wrong method", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		var resp *http.Response
		var err error
		if tc.name == "wrong method" {
			resp, err = http.Get(ts.URL + "/v1/cover")
		} else {
			resp, err = http.Post(ts.URL+"/v1/cover", "application/json", bytes.NewReader([]byte(tc.body)))
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	after := cov.Snapshot()
	if after.Arrivals != before.Arrivals || after.Errors != before.Errors {
		t.Fatal("malformed submission reached the cover engine")
	}
	// A single bare integer is the one-arrival form.
	resp, err := http.Post(ts.URL+"/v1/cover", "application/json", strings.NewReader("0"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-int form: status %d", resp.StatusCode)
	}
}

// TestCoverDrain checks cover submissions are refused with 503 once Drain
// has been initiated.
func TestCoverDrain(t *testing.T) {
	r := rng.New(3)
	ins, err := setcover.RandomInstance(8, 12, 0.4, 2, false, r)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := coverengine.New(ins, coverengine.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, Cover(cov))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		cov.Close()
	}()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/cover", "application/json", strings.NewReader("[0]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cover submit while draining: %d, want 503", resp.StatusCode)
	}
}
