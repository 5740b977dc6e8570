package harness

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"time"

	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/server"
)

// --- the loopback scaffold under every served experiment -----------------
//
// E14–E20 stand their servers up with serve, drive one-connection
// identity legs with stream and diff them against the sequential
// reference with sameLines; load legs run server.RunLoad against a
// loopback's URL.

// loopback is one server.Server behind an httptest listener on 127.0.0.1.
type loopback struct {
	// URL is the listener's base URL, e.g. "http://127.0.0.1:40123".
	URL string
	srv *server.Server
	ts  *httptest.Server
}

// serve mounts regs on a fresh server.Server and serves it on a new
// loopback listener. The caller keeps the engines behind regs and closes
// them after close.
func serve(cfg server.Config, regs ...server.Registration) (*loopback, error) {
	srv, err := server.New(cfg, regs...)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &loopback{URL: ts.URL, srv: srv, ts: ts}, nil
}

// close drains the server's pipelines within 30 s, then stops the listener
// and waits for its connections to finish.
func (l *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.srv.Drain(ctx)
	l.ts.Close()
	return err
}

// stream submits items over c's one connection in fixed batches, waiting
// for each batch's decisions before sending the next, and returns every
// line in order, the submit loop's wall time and its p99 batch round trip.
// It releases c's idle connection when done.
func stream[Req, Dec any](c *server.Client[Req, Dec], items []Req, batch int) (lines []Dec, elapsed, p99 time.Duration, err error) {
	defer c.CloseIdle()
	lines = make([]Dec, 0, len(items))
	var rtts []time.Duration
	start := time.Now()
	for lo := 0; lo < len(items); lo += batch {
		t0 := time.Now()
		ds, err := c.Submit(context.Background(), items[lo:min(lo+batch, len(items))])
		if err != nil {
			return nil, 0, 0, fmt.Errorf("submit at %d: %w", lo, err)
		}
		rtts = append(rtts, time.Since(t0))
		lines = append(lines, ds...)
	}
	elapsed = time.Since(start)
	if len(rtts) > 0 {
		slices.Sort(rtts)
		p99 = rtts[int(0.99*float64(len(rtts)-1))]
	}
	return lines, elapsed, p99, nil
}

// serveStream serves reg on a fresh loopback, streams items to it in
// 64-item batches over one connection of the client newClient builds,
// drains, and diffs the decision stream against want. It returns the
// submit loop's wall time and p99 batch round trip.
func serveStream[Req, Dec any](reg server.Registration, newClient func(baseURL string, maxConns int) *server.Client[Req, Dec],
	items []Req, want []Dec, same func(got, want Dec) bool) (elapsed, p99 time.Duration, err error) {
	lb, err := serve(server.Config{}, reg)
	if err != nil {
		return 0, 0, err
	}
	got, elapsed, p99, err := stream(newClient(lb.URL, 1), items, 64)
	if err := errors.Join(err, lb.close()); err != nil {
		return 0, 0, err
	}
	return elapsed, p99, sameLines(got, want, 0, same)
}

// sameLines diffs a served decision stream against its reference and
// reports the first divergence by global index; base is the global index
// of got[0] and want[0].
func sameLines[D any](got, want []D, base int, same func(got, want D) bool) error {
	for i := range min(len(got), len(want)) {
		if !same(got[i], want[i]) {
			return fmt.Errorf("decision %d diverges: served %+v, reference %+v", base+i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d decisions from %d, reference has %d", len(got), base, len(want))
	}
	return nil
}

// sameAdmission compares admission lines: id, accepted, cross-shard and
// preempted IDs, with no per-line error on the served side.
func sameAdmission(got, want server.DecisionJSON) bool {
	return got.Error == "" && got.ID == want.ID && got.Accepted == want.Accepted &&
		got.CrossShard == want.CrossShard && slices.Equal(got.Preempted, want.Preempted)
}

// sameCover compares cover lines: sequence number, element, arrival
// number and newly bought sets.
func sameCover(got, want server.CoverDecisionJSON) bool {
	return got.Error == "" && got.Seq == want.Seq && got.Element == want.Element &&
		got.Arrival == want.Arrival && slices.Equal(got.NewSets, want.NewSets)
}

// sameQuery compares query lines: position, accepted and preempted
// positions.
func sameQuery(got, want server.QueryDecisionJSON) bool {
	return got.Error == "" && got.Pos == want.Pos && got.Accepted == want.Accepted &&
		slices.Equal(got.Preempted, want.Preempted)
}

// directLines decides reqs one at a time on eng: the sequential reference
// every served admission stream is diffed against.
func directLines(eng *engine.Engine, reqs []problem.Request) ([]server.DecisionJSON, error) {
	lines := make([]server.DecisionJSON, len(reqs))
	for t, req := range reqs {
		d, err := eng.Submit(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("direct request %d: %w", t, err)
		}
		lines[t] = server.DecisionJSON{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted}
	}
	return lines, nil
}
