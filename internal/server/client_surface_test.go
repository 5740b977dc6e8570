package server

import (
	"context"
	"strings"
	"testing"
	"time"
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
