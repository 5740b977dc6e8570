package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/graph"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/workload"
)

// testInstance builds an oversubscribed random-graph workload.
func testInstance(t testing.TB, seed uint64, n int) *problem.Instance {
	t.Helper()
	r := rng.New(seed)
	g, err := graph.Random(8, 32, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := workload.RandomTraffic(g, n, workload.CostUniform, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// newTestServer stands up an engine + Server + httptest listener with the
// engine mounted as the admission workload.
func newTestServer(t testing.TB, caps []int, shards int, cfg Config) (*engine.Engine, *Server, *httptest.Server) {
	t.Helper()
	acfg := core.DefaultConfig()
	acfg.Seed = 1
	eng, err := engine.New(caps, engine.Config{Shards: shards, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, Admission(eng))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain(context.Background())
		eng.Close()
	})
	return eng, s, ts
}

// metricValue extracts one sample value from Prometheus text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("parsing %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestConfigValidation pins the Config contract: zero fields mean the
// documented defaults, negative fields are rejected at construction with a
// descriptive error.
func TestConfigValidation(t *testing.T) {
	if got := (Config{}).batchSize(); got != DefaultBatchSize {
		t.Fatalf("zero BatchSize resolves to %d, want the default %d", got, DefaultBatchSize)
	}
	eng, err := engine.New([]int{4}, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative batch", Config{BatchSize: -1}, "BatchSize"},
		{"negative max submit", Config{MaxSubmit: -1}, "MaxSubmit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg, Admission(eng))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v): got %v, want error naming %s", tc.cfg, err, tc.want)
			}
		})
	}
	t.Run("no workloads", func(t *testing.T) {
		if _, err := New(Config{}); err == nil {
			t.Fatal("New with no registrations should fail")
		}
	})
	t.Run("duplicate workload", func(t *testing.T) {
		_, err := New(Config{}, Admission(eng), Admission(eng))
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("duplicate registration: got %v", err)
		}
	})
	t.Run("zero config serves", func(t *testing.T) {
		s, err := New(Config{}, Admission(eng))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Workloads(); len(got) != 1 || got[0] != WorkloadAdmission {
			t.Fatalf("Workloads() = %v", got)
		}
		_ = s.Drain(context.Background())
	})
}

// TestItemBackpressureLiveness runs 16 concurrent submissions, each larger
// than one engine batch, through one workload's decision lock: every
// submission must be decided while the others wait for the lock — the
// lock throttles, it never wedges.
func TestItemBackpressureLiveness(t *testing.T) {
	ins := testInstance(t, 29, 800)
	eng, s, ts := newTestServer(t, ins.Capacities, 2, Config{BatchSize: 16})
	client := NewAdmissionClient(ts.URL, 8)
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * 50
			if _, err := client.Submit(ctx, ins.Requests[lo:lo+50]); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if st := eng.Snapshot(); st.Requests != 800 {
		t.Fatalf("engine decided %d of 800 under a tight item bound", st.Requests)
	}
}

// TestClientSubmitHonoursContextMidStream is the regression test for the
// streaming-cancellation fix: the server writes one decision line and then
// stalls; cancelling the context must abort the hung NDJSON read loop
// promptly instead of blocking until the server gives up.
func TestClientSubmitHonoursContextMidStream(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"id":0,"accepted":true}` + "\n"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-stall // hang the stream: the second line never arrives
	}))
	defer func() {
		close(stall)
		ts.Close()
	}()

	client := NewAdmissionClient(ts.URL, 1)
	defer client.CloseIdle()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	type result struct {
		ds  []DecisionJSON
		err error
	}
	done := make(chan result, 1)
	go func() {
		ds, err := client.Submit(ctx, []problem.Request{{Edges: []int{0}, Cost: 1}, {Edges: []int{0}, Cost: 1}})
		done <- result{ds, err}
	}()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("Submit on stalled stream: got err %v (decisions %v), want context.Canceled", r.err, r.ds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit did not return after cancellation: ctx is not wired through the NDJSON read loop")
	}
}

// TestLifecycleMetricsReconcile is the acceptance-criteria test: after a
// full serve-and-drain lifecycle, the /metrics counters reconcile exactly
// with the engine's accept/reject/preempt totals.
func TestLifecycleMetricsReconcile(t *testing.T) {
	ins := testInstance(t, 5, 600)
	eng, s, ts := newTestServer(t, ins.Capacities, 4, Config{})
	client := NewAdmissionClient(ts.URL, 4)
	ctx := context.Background()

	var preempted int64
	var accepted int64
	submissions := 0
	for lo := 0; lo < len(ins.Requests); lo += 50 {
		submissions++
		hi := min(lo+50, len(ins.Requests))
		ds, err := client.Submit(ctx, ins.Requests[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if d.Error != "" {
				t.Fatalf("decision error: %s", d.Error)
			}
			if d.Accepted {
				accepted++
			}
			preempted += int64(len(d.Preempted))
		}
	}

	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	st := eng.Snapshot()

	if st.Requests != int64(len(ins.Requests)) {
		t.Fatalf("engine saw %d requests, want %d", st.Requests, len(ins.Requests))
	}
	if st.Accepted != accepted {
		t.Fatalf("client counted %d accepts, engine %d", accepted, st.Accepted)
	}
	if st.Preemptions != preempted {
		t.Fatalf("client counted %d preemptions, engine %d", preempted, st.Preemptions)
	}

	// /metrics must reconcile exactly with the engine totals.
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "acserve_admission_accept_total"); got != float64(st.Accepted) {
		t.Fatalf("accept counter %g, engine %d", got, st.Accepted)
	}
	if got := metricValue(t, text, "acserve_admission_reject_total"); got != float64(st.Requests-st.Accepted) {
		t.Fatalf("reject counter %g, engine %d", got, st.Requests-st.Accepted)
	}
	if got := metricValue(t, text, "acserve_admission_preemptions_total"); got != float64(st.Preemptions) {
		t.Fatalf("preempt counter %g, engine %d", got, st.Preemptions)
	}
	if got := metricValue(t, text, "acserve_admission_decisions_total"); got != float64(st.Requests) {
		t.Fatalf("decisions counter %g, engine %d", got, st.Requests)
	}
	for _, want := range []string{
		"acserve_admission_shard_occupancy{shard=\"0\"}",
		"acserve_admission_decision_latency_seconds_bucket",
		"acserve_admission_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q", want)
		}
	}
	// Each submission fits one engine batch, so it is observed once in the
	// batch-size and the latency histograms.
	for _, name := range []string{
		"acserve_admission_batch_size_count",
		"acserve_admission_decision_latency_seconds_count",
	} {
		if got := metricValue(t, text, name); got != float64(submissions) {
			t.Fatalf("%s = %g, want one per submission (%d)", name, got, submissions)
		}
	}

	// /v1/admission/stats agrees too, and the uniform service stats match.
	var stats StatsJSON
	if err := client.Stats(ctx, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != st.Requests || stats.Accepted != st.Accepted ||
		stats.Preemptions != st.Preemptions || stats.RejectedCost != st.RejectedCost {
		t.Fatalf("/v1/admission/stats %+v disagrees with engine %+v", stats, st)
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("got %d shard rows, want 4", len(stats.Shards))
	}
	svc := eng.Stats()
	if svc.Requests != st.Requests || svc.Accepted != st.Accepted || svc.Objective != st.RejectedCost || svc.Shards != 4 {
		t.Fatalf("uniform service stats %+v disagree with snapshot %+v", svc, st)
	}
}

// TestMalformedSubmissions covers the malformed-JSON rejection paths.
func TestMalformedSubmissions(t *testing.T) {
	_, _, ts := newTestServer(t, []int{4, 4}, 1, Config{})
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/admission", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"garbage", "{not json", http.StatusBadRequest},
		{"empty body", "", http.StatusBadRequest},
		{"empty array", "[]", http.StatusBadRequest},
		{"edge out of range", `[{"edges":[9],"cost":1}]`, http.StatusBadRequest},
		{"empty edge set", `[{"edges":[],"cost":1}]`, http.StatusBadRequest},
		{"negative cost", `[{"edges":[0],"cost":-2}]`, http.StatusBadRequest},
		{"duplicate edge", `[{"edges":[0,0],"cost":1}]`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var e errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("want JSON error body, got decode err %v, error %q", err, e.Error)
			}
		})
	}

	// Oversize submissions get 413.
	t.Run("too many items", func(t *testing.T) {
		_, _, ts2 := newTestServer(t, []int{4}, 1, Config{MaxSubmit: 2})
		resp, err := http.Post(ts2.URL+"/v1/admission", "application/json",
			strings.NewReader(`[{"edges":[0],"cost":1},{"edges":[0],"cost":1},{"edges":[0],"cost":1}]`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
	})

	// Wrong method.
	t.Run("GET submit", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/admission")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})

	// Unregistered workloads 404.
	t.Run("unknown workload", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/nonesuch", "application/json", strings.NewReader(`1`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})

	// A single object (not an array) is accepted.
	t.Run("single object", func(t *testing.T) {
		resp := post(`{"edges":[0],"cost":1}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var d DecisionJSON
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		if !d.Accepted {
			t.Fatal("single request on empty network should be accepted")
		}
	})

	// Malformed counter moved.
	client := NewAdmissionClient(ts.URL, 1)
	text, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "acserve_malformed_total"); got < float64(len(cases)) {
		t.Fatalf("malformed counter %g, want ≥ %d", got, len(cases))
	}
}

// TestGracefulDrain checks that Drain completes every in-flight batch (no
// submission is dropped undecided) and that post-drain traffic gets 503.
func TestGracefulDrain(t *testing.T) {
	ins := testInstance(t, 9, 2000)
	eng, s, ts := newTestServer(t, ins.Capacities, 2,
		Config{BatchSize: 32})
	client := NewAdmissionClient(ts.URL, 8)
	ctx := context.Background()

	// Launch concurrent submitters, then drain while their batches are in
	// flight.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		decided int64
		subErrs []error
	)
	const workers = 8
	per := len(ins.Requests) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for at := lo; at < lo+per; at += 100 {
				ds, err := client.Submit(ctx, ins.Requests[at:min(at+100, lo+per)])
				mu.Lock()
				if err != nil {
					subErrs = append(subErrs, err)
				} else {
					decided += int64(len(ds))
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(lo)
	}
	// Give the workers a head start so batches are genuinely in flight.
	time.Sleep(5 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Every submission that was accepted into the pipeline was decided:
	// the engine's request count matches the decisions the clients got
	// back (503-refused batches contributed to neither).
	eng.Close()
	st := eng.Snapshot()
	if st.Requests != decided {
		t.Fatalf("engine decided %d requests, clients received %d decisions", st.Requests, decided)
	}
	// Submissions refused during drain surface as server errors, which is
	// the contract; transport must never fail.
	for _, err := range subErrs {
		if !strings.Contains(err.Error(), "draining") {
			t.Fatalf("non-drain submission error: %v", err)
		}
	}

	// Post-drain: 503 on submit, healthz degraded, metrics still served.
	_, err := client.Submit(ctx, ins.Requests[:1])
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("post-drain submit: got %v, want draining refusal", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d after drain, want 503", resp.StatusCode)
	}
	if _, err := client.Metrics(ctx); err != nil {
		t.Fatalf("metrics after drain: %v", err)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLoadgenLoopback exercises the acload→acserve path end to end over a
// real TCP listener: the generic load loop must decide everything it sent
// and reconcile with the engine's accounting. Run under -race in CI.
func TestLoadgenLoopback(t *testing.T) {
	ins := testInstance(t, 13, 1200)
	eng, s, ts := newTestServer(t, ins.Capacities, 4, Config{})
	_ = s
	report, err := RunLoad(context.Background(), NewAdmissionClient, LoadConfig[problem.Request]{
		BaseURL: ts.URL,
		Items:   ins.Requests,
		Conns:   4,
		Batch:   64,
		Repeat:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSent := int64(2 * len(ins.Requests))
	if report.Sent != wantSent || report.Decided != wantSent {
		t.Fatalf("sent %d decided %d, want %d", report.Sent, report.Decided, wantSent)
	}
	if report.Errors != 0 {
		t.Fatalf("%d per-item errors", report.Errors)
	}
	if report.Throughput <= 0 || report.LatencyP50 <= 0 || report.LatencyMax < report.LatencyP99 {
		t.Fatalf("implausible report: %+v", report)
	}
	st := eng.Snapshot()
	if st.Requests != wantSent {
		t.Fatalf("engine saw %d requests, want %d", st.Requests, wantSent)
	}
	if st.Accepted != report.Accepted {
		t.Fatalf("engine accepted %d, report %d", st.Accepted, report.Accepted)
	}
	for e, load := range st.Loads {
		if load > ins.Capacities[e] {
			t.Fatalf("edge %d over capacity: %d > %d", e, load, ins.Capacities[e])
		}
	}
}

// TestRPSPacing checks that a target RPS is roughly respected (coarse
// bound: no more than 2.5x the target, which catches a broken limiter
// without being flaky on loaded CI machines).
func TestRPSPacing(t *testing.T) {
	ins := testInstance(t, 17, 200)
	_, _, ts := newTestServer(t, ins.Capacities, 1, Config{})
	start := time.Now()
	report, err := RunLoad(context.Background(), NewAdmissionClient, LoadConfig[problem.Request]{
		BaseURL: ts.URL,
		Items:   ins.Requests,
		Conns:   2,
		Batch:   25,
		RPS:     2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 2 workers sends 4 batches of 25 spaced 25ms apart, the
	// first at t=0, so a working limiter cannot finish before ~75ms; an
	// unthrottled run takes single-digit milliseconds.
	elapsed := time.Since(start)
	if wantMin := 70 * time.Millisecond; elapsed < wantMin {
		t.Fatalf("200 requests at 2000 rps finished in %v, want ≥ %v", elapsed, wantMin)
	}
	if report.Decided != 200 {
		t.Fatalf("decided %d, want 200", report.Decided)
	}
}

// TestRunLoadFailsFast checks that the first transport-level error stops
// every connection, not only the one that saw it: after the server fails
// one submission with a 500, each of the other connections may still have
// one submission in flight and one about to start, and no more.
func TestRunLoadFailsFast(t *testing.T) {
	const conns, batch, batches, failAt = 4, 10, 400, 3
	ins := testInstance(t, 19, batch*batches)
	_, s, _ := newTestServer(t, ins.Capacities, 2, Config{})
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && posts.Add(1) == failAt {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = io.WriteString(w, `{"error":"injected failure"}`)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	_, err := RunLoad(context.Background(), NewAdmissionClient, LoadConfig[problem.Request]{
		BaseURL: ts.URL,
		Items:   ins.Requests,
		Conns:   conns,
		Batch:   batch,
	})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("RunLoad error %v, want the injected failure", err)
	}
	if after := posts.Load() - failAt; after > 2*conns {
		t.Fatalf("%d submissions reached the server after the failed one, want ≤ %d", after, 2*conns)
	}
}

// TestAdversaryOverHTTP plays the weighted preemption trap through the
// server: the §3 algorithm escapes it by preempting, so the reconstructed
// rejected cost must stay far below the trap cost W.
func TestAdversaryOverHTTP(t *testing.T) {
	adv := &workload.WeightedRatioAdversary{W: 1000}
	_, _, ts := newTestServer(t, adv.Capacities(), 1, Config{})
	res, err := RunAdversarial(context.Background(), ts.URL, adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("adversary made no requests")
	}
	// Either the cheap request was rejected outright (cost 1) or it was
	// accepted and preempted when the expensive one arrived (cost 1); a
	// non-preemptive server would instead pay 1000.
	if res.RejectedCost >= 1000 {
		t.Fatalf("rejected cost %g: server fell into the non-preemption trap", res.RejectedCost)
	}
	if res.Instance.N() != res.Requests {
		t.Fatalf("instance has %d requests, result %d", res.Instance.N(), res.Requests)
	}
}

// TestDeterministicLoopback checks the determinism contract the E14
// experiment relies on: one connection, one shard, sequential batches →
// decision-identical to the direct engine on the same seed.
func TestDeterministicLoopback(t *testing.T) {
	ins := testInstance(t, 23, 400)
	acfg := core.DefaultConfig()
	acfg.Seed = 77

	ref, err := engine.New(ins.Capacities, engine.Config{Shards: 1, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ctx := context.Background()
	for _, r := range ins.Requests {
		if _, err := ref.Submit(ctx, r); err != nil {
			t.Fatal(err)
		}
	}

	eng, err := engine.New(ins.Capacities, engine.Config{Shards: 1, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, Admission(eng))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Drain(context.Background())
		eng.Close()
	}()
	report, err := RunLoad(context.Background(), NewAdmissionClient, LoadConfig[problem.Request]{
		BaseURL: ts.URL,
		Items:   ins.Requests,
		Conns:   1,
		Batch:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	refStats, loopStats := ref.Snapshot(), eng.Snapshot()
	if refStats.Accepted != loopStats.Accepted || refStats.RejectedCost != loopStats.RejectedCost {
		t.Fatalf("loopback diverged from direct engine: %+v vs %+v", loopStats, refStats)
	}
	if report.Decided != int64(len(ins.Requests)) {
		t.Fatalf("decided %d, want %d", report.Decided, len(ins.Requests))
	}
}

// TestHTTPServerDropsStalledClient checks the connection limits HTTPServer
// sets: all are non-zero and no read/write timeout can cut a long streaming
// submission. With the header timeout shortened, a raw client that sends
// half a request header must be disconnected, while a wire submission on
// another connection is decided normally.
func TestHTTPServerDropsStalledClient(t *testing.T) {
	ins := testInstance(t, 21, 200)
	eng, s, _ := newTestServer(t, ins.Capacities, 2, Config{})
	hs := s.HTTPServer("127.0.0.1:0")
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.MaxHeaderBytes <= 0 {
		t.Fatalf("HTTPServer left a limit unset: ReadHeaderTimeout %v, IdleTimeout %v, MaxHeaderBytes %d",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.MaxHeaderBytes)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("HTTPServer set ReadTimeout %v / WriteTimeout %v, which would cut long streaming submissions",
			hs.ReadTimeout, hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { _ = hs.Close() })

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /v1/admission HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}

	ds, err := NewAdmissionWireClient("http://"+ln.Addr().String(), 1).Submit(context.Background(), ins.Requests)
	if err != nil {
		t.Fatalf("wire submission beside a stalled client: %v", err)
	}
	if len(ds) != len(ins.Requests) || eng.Snapshot().Requests != int64(len(ins.Requests)) {
		t.Fatalf("decided %d of %d requests (engine saw %d)", len(ds), len(ins.Requests), eng.Snapshot().Requests)
	}

	start := time.Now()
	if err := stalled.SetReadDeadline(start.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(stalled)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
}
