package server

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"admission/internal/wire"
)

// TestClientWaitHealthy covers the client's startup helper: WaitHealthy
// polling a live listener to success and timing out against a dead
// address.
func TestClientWaitHealthy(t *testing.T) {
	_, _, ts := newTestServer(t, []int{2, 2, 2}, 1, Config{})
	client := NewAdmissionClient(ts.URL, 1)
	defer client.CloseIdle()
	if err := client.WaitHealthy(2 * time.Second); err != nil {
		t.Fatalf("healthy listener reported unhealthy: %v", err)
	}

	// A listener that never answers: the poll loop must give up at the
	// deadline with an error naming the base URL.
	dead := NewAdmissionClient("http://127.0.0.1:1", 1)
	defer dead.CloseIdle()
	err := dead.WaitHealthy(20 * time.Millisecond)
	if err == nil {
		t.Fatal("WaitHealthy succeeded against a dead address")
	}
	if !strings.Contains(err.Error(), "127.0.0.1:1") {
		t.Fatalf("timeout error %q does not name the target", err)
	}
}

// TestLoadReportString covers the human-readable report rendering acload
// prints — every counter and latency quantile must appear.
func TestLoadReportString(t *testing.T) {
	r := &LoadReport{
		Sent:       120,
		Batches:    12,
		Decided:    118,
		Errors:     2,
		Elapsed:    1500 * time.Millisecond,
		Throughput: 78.6,
		LatencyP50: 2 * time.Millisecond,
		LatencyP90: 4 * time.Millisecond,
		LatencyP99: 9 * time.Millisecond,
		LatencyMax: 15 * time.Millisecond,
	}
	out := r.String()
	for _, want := range []string{"120", "12 batches", "118", "2 errors", "1.5s", "79 decisions/s", "p50 2ms", "p90 4ms", "p99 9ms", "max 15ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report %q missing %q", out, want)
		}
	}
}

// TestServerDraining: the flag flips when Drain begins and the server
// refuses new work from then on.
func TestServerDraining(t *testing.T) {
	_, s, _ := newTestServer(t, []int{2, 2}, 1, Config{})
	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Fatal("drained server does not report draining")
	}
}

// TestClientWireDecodesStreamError decodes a whole-batch stream error
// frame and a decision frame through each workload's client hooks: the
// error frame becomes a line carrying only its message, the decision
// frame the same line the NDJSON client yields.
func TestClientWireDecodesStreamError(t *testing.T) {
	payload := func(frame []byte) []byte {
		p, _, err := wire.NextFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const msg = "wal append failed"
	errFrame := payload(wire.AppendStreamError(nil, msg))
	check := func(name string, got any, err error, want any) {
		t.Helper()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, err %v; want %+v", name, got, err, want)
		}
	}
	a := AdmissionClientWire().DecodeDecision
	d, err := a(errFrame)
	check("admission stream error", d, err, DecisionJSON{Error: msg})
	d, err = a(payload(wire.AppendAdmissionDecision(nil, &wire.AdmissionDecision{ID: 3, Accepted: true, Preempted: []int{1}})))
	check("admission decision", d, err, DecisionJSON{ID: 3, Accepted: true, Preempted: []int{1}})

	c := CoverClientWire().DecodeDecision
	cd, err := c(errFrame)
	check("cover stream error", cd, err, CoverDecisionJSON{Error: msg})
	cd, err = c(payload(wire.AppendCoverDecision(nil, &wire.CoverDecision{Seq: 2, Element: 5, Arrival: 1, NewSets: []int{4}, AddedCost: 1.5})))
	check("cover decision", cd, err, CoverDecisionJSON{Seq: 2, Element: 5, Arrival: 1, NewSets: []int{4}, AddedCost: 1.5})

	q := QueryClientWire().DecodeDecision
	qd, err := q(errFrame)
	check("query stream error", qd, err, QueryDecisionJSON{Error: msg})
	qd, err = q(payload(wire.AppendQueryDecision(nil, &wire.QueryDecision{Pos: 7, Accepted: true, Preempted: []int{2}, Replayed: 8})))
	check("query decision", qd, err, QueryDecisionJSON{Pos: 7, Accepted: true, Preempted: []int{2}, Replayed: 8})

	if _, err := a([]byte{}); err == nil {
		t.Error("admission client decoded an empty frame")
	}
}
