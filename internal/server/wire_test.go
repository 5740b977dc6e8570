package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/wire"
)

// submitRaw posts an arbitrary body with the given content type and returns
// the status code and response body.
func submitRaw(t *testing.T, url, workload, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/"+workload, contentType, bytes.NewReader(body))
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

// TestWireAdmissionCrossCodecIdentical stands up two identically seeded
// servers and drives the same request sequence through one over NDJSON and
// through the other over the binary wire protocol, one connection each.
// Single-connection traffic is FIFO end to end, so the two decision
// streams must be line-for-line identical — the codec must not be able to
// change a decision.
func TestWireAdmissionCrossCodecIdentical(t *testing.T) {
	ins := testInstance(t, 77, 400)
	// The JSON side refuses wire bodies, so every JSON-client submission
	// it answers went over NDJSON; TestWireContentTypeNegotiation shows
	// the wire client is refused by such a server.
	_, _, tsJSON := newTestServer(t, ins.Capacities, 2, Config{JSONOnly: true})
	_, _, tsWire := newTestServer(t, ins.Capacities, 2, Config{})

	jc := NewAdmissionClient(tsJSON.URL, 1)
	wc := NewAdmissionWireClient(tsWire.URL, 1)
	ctx := context.Background()
	const batch = 32
	for lo := 0; lo < len(ins.Requests); lo += batch {
		hi := min(lo+batch, len(ins.Requests))
		jds, err := jc.Submit(ctx, ins.Requests[lo:hi])
		if err != nil {
			t.Fatalf("json submit: %v", err)
		}
		wds, err := wc.Submit(ctx, ins.Requests[lo:hi])
		if err != nil {
			t.Fatalf("wire submit: %v", err)
		}
		if !reflect.DeepEqual(jds, wds) {
			t.Fatalf("decision streams diverge at batch [%d,%d):\n json %+v\n wire %+v", lo, hi, jds, wds)
		}
	}
}

// TestWireCoverCrossCodecIdentical is the cover-workload twin: the same
// arrival sequence over both codecs against identically seeded servers,
// including per-item refusals (elements arriving more often than their
// degree), must yield identical decision lines.
func TestWireCoverCrossCodecIdentical(t *testing.T) {
	_, ins, arrivals, tsJSON := newCoverServer(t, 2, 9)
	_, ins2, _, tsWire := newCoverServer(t, 2, 9)
	if ins.M() != ins2.M() {
		t.Fatal("seeded instances diverge")
	}
	// Append repeats of one element so some arrivals exceed its degree and
	// are refused per-item — the error path must round-trip the codec too.
	seq := append(append([]int{}, arrivals...), 0, 0, 0, 0, 0, 0, 0, 0)

	jc := NewCoverClient(tsJSON.URL, 1)
	wc := NewCoverWireClient(tsWire.URL, 1)
	ctx := context.Background()
	const batch = 16
	errorsSeen := 0
	for lo := 0; lo < len(seq); lo += batch {
		hi := min(lo+batch, len(seq))
		jds, err := jc.Submit(ctx, seq[lo:hi])
		if err != nil {
			t.Fatalf("json submit: %v", err)
		}
		wds, err := wc.Submit(ctx, seq[lo:hi])
		if err != nil {
			t.Fatalf("wire submit: %v", err)
		}
		if !reflect.DeepEqual(jds, wds) {
			t.Fatalf("decision streams diverge at batch [%d,%d):\n json %+v\n wire %+v", lo, hi, jds, wds)
		}
		for _, d := range wds {
			if d.Error != "" {
				errorsSeen++
			}
		}
	}
	if errorsSeen == 0 {
		t.Fatal("expected some per-item refusals to exercise the wire error path")
	}
}

// TestWireContentTypeNegotiation pins the negotiation matrix: parameters
// after the media type are ignored, JSONOnly servers refuse wire bodies
// with 415 while still serving JSON, and JSON submissions are untouched by
// the wire codec's presence.
func TestWireContentTypeNegotiation(t *testing.T) {
	ins := testInstance(t, 3, 4)
	_, _, ts := newTestServer(t, ins.Capacities, 1, Config{})

	body := wire.AppendSubmitHeader(nil, 1)
	body = wire.AppendAdmissionRequest(body, ins.Requests[0].Edges, ins.Requests[0].Cost)

	if code, _ := submitRaw(t, ts.URL, WorkloadAdmission, wire.ContentType+"; v=1", body); code != http.StatusOK {
		t.Fatalf("wire submit with content-type params: got %d, want 200", code)
	}

	_, _, tsOnly := newTestServer(t, ins.Capacities, 1, Config{JSONOnly: true})
	if code, _ := submitRaw(t, tsOnly.URL, WorkloadAdmission, wire.ContentType, body); code != http.StatusUnsupportedMediaType {
		t.Fatalf("wire submit against JSONOnly server: got %d, want 415", code)
	}
	if code, _ := submitRaw(t, tsOnly.URL, WorkloadAdmission, "application/json",
		[]byte(`{"edges":[0],"cost":1}`)); code != http.StatusOK {
		t.Fatalf("json submit against JSONOnly server: got %d, want 200", code)
	}
	wc := NewAdmissionWireClient(tsOnly.URL, 1)
	if _, err := wc.Submit(context.Background(), ins.Requests[:1]); err == nil {
		t.Fatal("wire client against JSONOnly server should surface the 415")
	}
}

// TestWireMalformedBodies pins the HTTP status of every decoder refusal:
// hostile or damaged binary bodies are 400s (413 for an honest
// over-MaxSubmit count), and each failure lands in the malformed counter
// rather than panicking or hanging the pipeline.
func TestWireMalformedBodies(t *testing.T) {
	ins := testInstance(t, 5, 4)
	_, _, ts := newTestServer(t, ins.Capacities, 1, Config{MaxSubmit: 8})

	good := wire.AppendSubmitHeader(nil, 1)
	good = wire.AppendAdmissionRequest(good, ins.Requests[0].Edges, ins.Requests[0].Cost)

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"empty", nil, http.StatusBadRequest},
		{"zero count", []byte{0x00}, http.StatusBadRequest},
		{"count without frames", []byte{0x05}, http.StatusBadRequest},
		{"absurd count", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, http.StatusBadRequest},
		{"over max submit", func() []byte {
			b := wire.AppendSubmitHeader(nil, 9)
			for i := 0; i < 9; i++ {
				b = wire.AppendAdmissionRequest(b, []int{0}, 1)
			}
			return b
		}(), http.StatusRequestEntityTooLarge},
		{"truncated frame", good[:len(good)-2], http.StatusBadRequest},
		{"trailing bytes", append(append([]byte{}, good...), 0xAA), http.StatusBadRequest},
		{"wrong tag", func() []byte {
			b := wire.AppendSubmitHeader(nil, 1)
			return wire.AppendCoverRequest(b, 3) // cover frame on the admission route
		}(), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := submitRaw(t, ts.URL, WorkloadAdmission, wire.ContentType, tc.body)
			if code != tc.want {
				t.Fatalf("got %d (%s), want %d", code, bytes.TrimSpace(body), tc.want)
			}
		})
	}
	// The route still works after every refusal.
	if code, _ := submitRaw(t, ts.URL, WorkloadAdmission, wire.ContentType, good); code != http.StatusOK {
		t.Fatalf("clean wire submit after refusals: got %d, want 200", code)
	}
}

// TestWireConcurrentSubmissions hammers the binary path from many
// goroutines sharing one client — the pooled encode/decode buffers and the
// sink's pooled response buffer must be race-free (this test is the wire
// half of the -race CI gate) — and pins one decision order across
// submission sizes: one-item submissions take one engine batch,
// BatchSize+1-item submissions two. Every handler decides under the
// workload's one lock, so no engine call may overlap another (serialGuard
// counts them), and a one-shard engine whose calls never overlap decides
// in the order it assigns IDs: the served decisions, sorted by ID, must
// equal a fresh engine's decisions for the same requests replayed in ID
// order, down to the state digest.
func TestWireConcurrentSubmissions(t *testing.T) {
	const batch = 16
	ins := testInstance(t, 11, 256)
	acfg := core.DefaultConfig()
	acfg.Seed = 1
	eng, err := engine.New(ins.Capacities, engine.Config{Shards: 1, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	guard := &serialGuard{Engine: eng}
	s, err := New(Config{BatchSize: batch}, Register(WorkloadAdmission, guard, admissionCodec(eng)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wc := NewAdmissionWireClient(ts.URL, 8)

	type served struct {
		req problem.Request
		dec DecisionJSON
	}
	const workers = 8
	const rounds = 40
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []served
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 1
				if (w+r)%4 == 0 {
					n = batch + 1
				}
				lo := (w*rounds + r) % (len(ins.Requests) - n)
				reqs := ins.Requests[lo : lo+n]
				ds, err := wc.Submit(context.Background(), reqs)
				if err != nil {
					errs <- err
					return
				}
				if len(ds) != n {
					errs <- fmt.Errorf("got %d decisions for %d items", len(ds), n)
					return
				}
				mu.Lock()
				for i := range ds {
					all = append(all, served{reqs[i], ds[i]})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := eng.Snapshot().Requests, int64(len(all)); got != want {
		t.Fatalf("engine decided %d requests, served %d", got, want)
	}
	if n := guard.overlaps.Load(); n != 0 {
		t.Fatalf("%d engine calls overlapped another: the entry points do not decide under one lock", n)
	}

	sort.Slice(all, func(i, j int) bool { return all[i].dec.ID < all[j].dec.ID })
	reqs := make([]problem.Request, len(all))
	for i, sv := range all {
		if sv.dec.ID != i || sv.dec.Error != "" {
			t.Fatalf("served decision %d: %+v, want ID %d and no error", i, sv.dec, i)
		}
		reqs[i] = sv.req
	}
	ref, err := engine.New(ins.Capacities, engine.Config{Shards: 1, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sv := range all {
		if sv.dec.Accepted != want[i].Accepted || !slices.Equal(sv.dec.Preempted, want[i].Preempted) {
			t.Fatalf("ID %d: served accepted=%v preempted=%v, replay in ID order accepted=%v preempted=%v",
				i, sv.dec.Accepted, sv.dec.Preempted, want[i].Accepted, want[i].Preempted)
		}
	}
	if got, want := eng.StateDigest(), ref.StateDigest(); got != want {
		t.Fatalf("served engine digest %#x, replay in ID order %#x", got, want)
	}
}

// serialGuard is an engine as the pipeline sees it, counting batch calls
// made while another is still deciding.
type serialGuard struct {
	*engine.Engine
	inflight, overlaps atomic.Int64
}

func (g *serialGuard) SubmitBatchPrevalidated(ctx context.Context, reqs []problem.Request) ([]engine.Decision, error) {
	if g.inflight.Add(1) > 1 {
		g.overlaps.Add(1)
	}
	defer g.inflight.Add(-1)
	return g.Engine.SubmitBatchPrevalidated(ctx, reqs)
}
