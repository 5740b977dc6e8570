package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"admission/internal/core"
	"admission/internal/lca"
	"admission/internal/wire"
	"admission/internal/workload"
)

// newQueryServer stands up a query engine over the named workload behind a
// registry-based Server.
func newQueryServer(t testing.TB, name string, n int, seed uint64, workers int) (*lca.Engine, *httptest.Server) {
	t.Helper()
	alg := core.DefaultConfig()
	alg.Seed = seed
	eng, err := lca.New(lca.Config{
		Source:    lca.Source{Workload: name, Model: workload.CostUniform, Capacity: 3, N: n, Seed: seed},
		Algorithm: alg,
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, Query(eng))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain(context.Background())
		eng.Close()
	})
	return eng, ts
}

// TestQueryLoopbackBothProtocols serves every position over HTTP through
// both codecs and requires the decision lines to be identical to each
// other and to direct engine answers — the serving-layer half of the E18
// consistency guarantee.
func TestQueryLoopbackBothProtocols(t *testing.T) {
	eng, ts := newQueryServer(t, "random", 48, 7, 4)
	ctx := context.Background()

	qs := make([]lca.Query, eng.Positions())
	for i := range qs {
		qs[i] = lca.Query{Pos: i}
	}
	jsonClient := NewQueryClient(ts.URL, 2)
	defer jsonClient.CloseIdle()
	wireClient := NewQueryWireClient(ts.URL, 2)
	defer wireClient.CloseIdle()

	viaJSON, err := jsonClient.Submit(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	viaWire, err := wireClient.Submit(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaJSON) != len(qs) || len(viaWire) != len(qs) {
		t.Fatalf("got %d JSON / %d wire decisions for %d queries", len(viaJSON), len(viaWire), len(qs))
	}
	for i := range qs {
		if fmt.Sprint(viaJSON[i]) != fmt.Sprint(viaWire[i]) {
			t.Fatalf("query %d: JSON line %+v != wire line %+v", i, viaJSON[i], viaWire[i])
		}
		direct, err := eng.Submit(ctx, qs[i])
		if err != nil {
			t.Fatal(err)
		}
		got := viaJSON[i]
		if got.Pos != direct.Pos || got.Accepted != direct.Accepted ||
			fmt.Sprint(got.Preempted) != fmt.Sprint(direct.Preempted) || got.Replayed != direct.Replayed {
			t.Fatalf("query %d: served line %+v != direct answer %+v", i, got, direct)
		}
	}

	// Stats reflect the engine and the source spec.
	var stats QueryStatsJSON
	if err := jsonClient.Stats(ctx, &stats); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	src := eng.Source()
	if stats.Queries != st.Requests || stats.Accepted != st.Accepted || stats.Errors != st.Errors ||
		stats.SimulatedArrivals != eng.Simulated() {
		t.Fatalf("/v1/query/stats %+v does not match engine stats %+v", stats, st)
	}
	if stats.Workload != src.Workload || stats.Seed != src.Seed || stats.Positions != eng.Positions() ||
		stats.Model != src.Model.String() || stats.Workers != eng.Workers() {
		t.Fatalf("/v1/query/stats shape wrong: %+v", stats)
	}

	// Metrics reconcile with the decisions that passed through the server
	// (the direct eng.Submit calls above bypass the serving observer).
	var servedAccepts float64
	for _, lines := range [][]QueryDecisionJSON{viaJSON, viaWire} {
		for _, d := range lines {
			if d.Accepted {
				servedAccepts++
			}
		}
	}
	metricsText, err := jsonClient.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metricsText, "acserve_query_accept_total"); got != servedAccepts {
		t.Fatalf("accept metric %v, served lines accepted %v", got, servedAccepts)
	}
	// The cost gauge reads the arrivals the engine simulated: every
	// position once, however often it was asked.
	if got := metricValue(t, metricsText, "acserve_query_simulated_arrivals"); got != float64(eng.Simulated()) || got != float64(eng.Positions()) {
		t.Fatalf("simulated metric %v, engine simulated %d of %d positions", got, eng.Simulated(), eng.Positions())
	}
	if got := metricValue(t, metricsText, "acserve_query_workers"); got != float64(eng.Workers()) {
		t.Fatalf("workers metric %v, engine %d", got, eng.Workers())
	}

	// A one-item submission's response is finished by net/http, so it
	// leaves in one write with a Content-Length instead of as chunks.
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, post := range []struct {
		contentType string
		body        []byte
	}{
		{"application/json", []byte(`{"pos":3}`)},
		{wire.ContentType, QueryClientWire().AppendRequest(wire.AppendSubmitHeader(nil, 1), lca.Query{Pos: 3})},
	} {
		resp, err := hc.Post(ts.URL+"/v1/query", post.contentType, bytes.NewReader(post.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", post.contentType, resp.StatusCode, body)
		}
		if resp.ContentLength <= 0 || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v: want one sized write",
				post.contentType, resp.ContentLength, resp.TransferEncoding)
		}
		if int64(len(body)) != resp.ContentLength {
			t.Fatalf("%s: read %d bytes, Content-Length %d", post.contentType, len(body), resp.ContentLength)
		}
	}
}

// TestQueryLoadBothProtocols drives the generic load loop against the
// query workload over both protocols and reconciles the reports.
func TestQueryLoadBothProtocols(t *testing.T) {
	eng, ts := newQueryServer(t, "random", 40, 3, 4)
	qs := make([]lca.Query, eng.Positions())
	for i := range qs {
		qs[i] = lca.Query{Pos: i}
	}
	for _, wire := range []bool{false, true} {
		newClient := NewQueryClient
		if wire {
			newClient = NewQueryWireClient
		}
		report, err := RunLoad(context.Background(), newClient, LoadConfig[lca.Query]{
			BaseURL: ts.URL,
			Items:   qs,
			Conns:   2,
			Batch:   8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if report.Decided != int64(len(qs)) || report.Errors != 0 {
			t.Fatalf("wire=%v: decided %d of %d (%d errors)", wire, report.Decided, len(qs), report.Errors)
		}
		if report.Accepted == 0 {
			t.Fatalf("wire=%v: load run observed no accepted answers", wire)
		}
	}
}

// TestQueryStatsSimulatedArrivals sweeps all 256 positions of a fresh
// engine: the frontier offers each arrival once, so /v1/query/stats must
// report 256 simulated arrivals, not the 32,896 = Σ(pos+1) the answers'
// replayed prefixes add up to.
func TestQueryStatsSimulatedArrivals(t *testing.T) {
	eng, ts := newQueryServer(t, "random", 256, 9, 2)
	qs := make([]lca.Query, eng.Positions())
	for i := range qs {
		qs[i] = lca.Query{Pos: i}
	}
	client := NewQueryClient(ts.URL, 1)
	defer client.CloseIdle()
	ctx := context.Background()
	if _, err := client.Submit(ctx, qs); err != nil {
		t.Fatal(err)
	}
	var stats QueryStatsJSON
	if err := client.Stats(ctx, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.SimulatedArrivals != 256 || stats.Queries != 256 {
		t.Fatalf("stats after the sweep: %d simulated arrivals for %d queries, want 256 for 256", stats.SimulatedArrivals, stats.Queries)
	}
	if replayed := eng.Stats().Objective; replayed != 32896 {
		t.Fatalf("answers' replayed prefixes sum to %v, want 32896", replayed)
	}
}

// TestQueryMalformed checks malformed and invalid query submissions map to
// 4xx without reaching the engine.
func TestQueryMalformed(t *testing.T) {
	eng, ts := newQueryServer(t, "random", 16, 5, 2)
	before := eng.Stats()
	cases := []struct {
		name, body string
	}{
		{"not json", "{"},
		{"empty body", ""},
		{"empty array", "[]"},
		{"negative position", `[{"pos":-1}]`},
		{"position out of range", `[{"pos":16}]`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: status %d, want 405", resp.StatusCode)
	}
	if after := eng.Stats(); after.Requests != before.Requests {
		t.Fatal("malformed submission reached the query engine")
	}
	// The single-query form works.
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"pos":0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-query form: status %d", resp.StatusCode)
	}
}

// TestQueryStaleClient pins what a client of the retired replay-layer
// selector gets. A JSON query that still names "fidelity" is decoded like
// any unknown key and gets the frontier's line, byte for byte. A binary
// request that still carries the selector byte after the position is
// refused, and so is a decision frame with the retired flag bit 0x02. On
// this blocks source, position 39's edge component is smaller than its
// prefix, so a component-only answer would read replayed < 40.
func TestQueryStaleClient(t *testing.T) {
	_, ts := newQueryServer(t, "blocks", 40, 11, 2)
	const r = 39
	post := func(contentType string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	status, stale := post("application/json", []byte(fmt.Sprintf(`{"pos":%d,"fidelity":"neighborhood"}`, r)))
	if status != http.StatusOK {
		t.Fatalf("stale JSON query: status %d: %s", status, stale)
	}
	if _, plain := post("application/json", []byte(fmt.Sprintf(`{"pos":%d}`, r))); !bytes.Equal(stale, plain) {
		t.Fatalf("stale JSON query answered %s, plain query %s", stale, plain)
	}
	var line map[string]any
	if err := json.Unmarshal(stale, &line); err != nil {
		t.Fatal(err)
	}
	if _, ok := line["fidelity"]; ok || line["replayed"] != float64(r+1) {
		t.Fatalf("stale JSON query line %s: want no fidelity key and replayed %d", stale, r+1)
	}

	// The old request frame: pos 17 (zigzag 0x22) plus the selector byte.
	body := append(wire.AppendSubmitHeader(nil, 1), 0x03, wire.TagQueryRequest, 0x22, 0x01)
	if status, msg := post(wire.ContentType, body); status != http.StatusBadRequest {
		t.Fatalf("stale binary query: status %d, want 400: %s", status, msg)
	}

	payload, _, err := wire.NextFrame(wire.AppendQueryDecision(nil, &wire.QueryDecision{Pos: r, Accepted: true, Replayed: r + 1}))
	if err != nil {
		t.Fatal(err)
	}
	payload[2] |= 0x02 // flags byte follows the tag and the 1-byte pos varint
	if d, err := QueryClientWire().DecodeDecision(payload); err == nil {
		t.Fatalf("client decoded a decision frame with flag 0x02: %+v", d)
	}
}

// TestQueryNotEnabled checks the query endpoints 404 cleanly on a server
// without a query workload registered.
func TestQueryNotEnabled(t *testing.T) {
	_, _, ts := newTestServer(t, []int{4}, 1, Config{})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"pos":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/query without query workload: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/query/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/query/stats without query workload: %d, want 404", resp.StatusCode)
	}
}
