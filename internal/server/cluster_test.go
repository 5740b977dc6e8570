package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"admission/internal/cluster"
	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/wal"
)

// clusterBackendFor builds the backend every cluster serving test uses;
// the configuration (and hence the fingerprint) is fixed so WAL logs
// recover across backend instances.
func clusterBackendFor(t testing.TB, caps []int) *cluster.Backend {
	t.Helper()
	acfg := core.DefaultConfig()
	acfg.Seed = 5
	b, err := cluster.NewBackend(caps, cluster.BackendConfig{Engine: engine.Config{Shards: 2, Algorithm: acfg}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// clusterOps builds a deterministic mixed operation stream over m edges:
// single-edge offers, reserve/commit and reserve/abort pairs, and settles
// of transactions the backend never granted (deterministic no-ops).
func clusterOps(m, n int, seed uint64) []cluster.Op {
	r := rng.New(seed)
	ops := make([]cluster.Op, 0, n)
	tx := uint64(1)
	for len(ops) < n {
		switch len(ops) % 7 {
		case 3:
			e := int(r.Uint64() % uint64(m))
			ops = append(ops, cluster.Op{Kind: cluster.OpReserve, Tx: tx, Edges: []int{e}})
			settle := cluster.OpCommit
			if tx%2 == 0 {
				settle = cluster.OpAbort
			}
			ops = append(ops, cluster.Op{Kind: settle, Tx: tx})
			tx++
		case 5:
			ops = append(ops, cluster.Op{Kind: cluster.OpCommit, Tx: (1 << 40) + tx})
		default:
			ops = append(ops, cluster.Op{
				Kind:  cluster.OpOffer,
				Edges: []int{int(r.Uint64() % uint64(m))},
				Cost:  1 + r.Float64(),
			})
		}
	}
	return ops[:n]
}

// clusterClientWire is the binary-protocol client hook pair for the
// cluster workload: operations frame through cluster.AppendOp, decisions
// reuse the admission decision frame.
func clusterClientWire(t *testing.T) ClientWire[cluster.Op, DecisionJSON] {
	aw := AdmissionClientWire()
	return ClientWire[cluster.Op, DecisionJSON]{
		AppendRequest: func(buf []byte, op cluster.Op) []byte {
			out, err := cluster.AppendOp(buf, op)
			if err != nil {
				t.Fatal(err)
			}
			return out
		},
		DecodeDecision: aw.DecodeDecision,
	}
}

// TestClusterBackendLoopbackBothCodecs: the served cluster workload must
// decide exactly what the backend decides directly — over JSON and the
// binary wire protocol — and the stats body and metrics must reconcile
// with the backend's ledger.
func TestClusterBackendLoopbackBothCodecs(t *testing.T) {
	caps := make([]int, 16)
	for i := range caps {
		caps[i] = 2 // small capacity so refusals occur
	}
	ops := clusterOps(len(caps), 300, 11)

	golden := clusterBackendFor(t, caps)
	defer golden.Close()
	ds, err := golden.SubmitBatch(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	want := wantAdmissionLines(ds)

	for _, proto := range []string{"json", "wire"} {
		b := clusterBackendFor(t, caps)
		s, err := New(Config{}, ClusterBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		var c *Client[cluster.Op, DecisionJSON]
		if proto == "wire" {
			c = NewWireClient(ts.URL, cluster.Workload, 1, clusterClientWire(t))
		} else {
			c = NewClient[cluster.Op, DecisionJSON](ts.URL, cluster.Workload, 1)
		}
		got := submitAll(t, c, ops)
		checkAdmissionLines(t, got, want, proto+" cluster loopback")

		var st cluster.BackendStatsJSON
		if err := c.Stats(context.Background(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Requests != int64(len(ops)) {
			t.Fatalf("%s: stats report %d requests, want %d", proto, st.Requests, len(ops))
		}
		if st.Fingerprint != b.Fingerprint() {
			t.Fatalf("%s: stats fingerprint %q != backend %q", proto, st.Fingerprint, b.Fingerprint())
		}
		if st.OpenTxs != b.OpenTxs() {
			t.Fatalf("%s: stats report %d open txs, backend holds %d", proto, st.OpenTxs, b.OpenTxs())
		}

		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(body)
		accepts := metricValue(t, text, "acserve_cluster_accept_total")
		rejects := metricValue(t, text, "acserve_cluster_reject_total")
		if int(accepts+rejects) != len(ops) {
			t.Fatalf("%s: metrics count %v decisions, want %d", proto, accepts+rejects, len(ops))
		}
		if open := metricValue(t, text, "acserve_cluster_open_txs"); int(open) != b.OpenTxs() {
			t.Fatalf("%s: open-txs gauge %v, backend holds %d", proto, open, b.OpenTxs())
		}

		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := b.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if b.Engine() == nil {
			t.Fatal("backend lost its engine")
		}
		b.Close()
	}
}

// TestClusterBackendDurableRecovery: a durably served cluster backend
// must recover its exact pre-crash state — engine digest and transaction
// table both — from snapshot + log tail, and the recovered backend must
// continue the stream decision-identically to an uninterrupted one.
func TestClusterBackendDurableRecovery(t *testing.T) {
	caps := make([]int, 16)
	for i := range caps {
		caps[i] = 3
	}
	ops := clusterOps(len(caps), 400, 23)
	cut := 250

	golden := clusterBackendFor(t, caps)
	defer golden.Close()
	gds, err := golden.SubmitBatch(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	want := wantAdmissionLines(gds)

	dir := t.TempDir()
	b1 := clusterBackendFor(t, caps)
	log1, err := wal.Open(dir, wal.Options{Kind: wal.KindCluster, Fingerprint: b1.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	info, err := recoverCluster(log1, b1)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 0 || info.TailRecords != 0 {
		t.Fatalf("fresh log replayed %+v, want nothing", info)
	}
	s1, err := New(Config{}, clusterBackendDurable(b1, log1, DurableOptions{SnapshotEvery: 64, Replay: info}))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	c1 := NewClient[cluster.Op, DecisionJSON](ts1.URL, cluster.Workload, 1)
	got := submitAll(t, c1, ops[:cut])
	checkAdmissionLines(t, got, want[:cut], "pre-crash prefix")
	wantDigest := b1.StateDigest()
	wantOpen := b1.OpenTxs()
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}
	b1.Close()

	// "Restart": a fresh backend replays the log and must land on the
	// same digest and open-transaction table.
	b2 := clusterBackendFor(t, caps)
	log2, err := wal.Open(dir, wal.Options{Kind: wal.KindCluster, Fingerprint: b2.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	info2, err := recoverCluster(log2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if n := info2.SnapshotSeq + info2.TailRecords; n != int64(cut) {
		t.Fatalf("recovered %d decisions, want %d", n, cut)
	}
	if info2.SnapshotSeq == 0 {
		t.Fatalf("SnapshotEvery=64 over %d ops left no snapshot prefix: %+v", cut, info2)
	}
	if d := b2.StateDigest(); d != wantDigest {
		t.Fatalf("recovered digest %016x != pre-crash %016x", d, wantDigest)
	}
	if b2.OpenTxs() != wantOpen {
		t.Fatalf("recovered %d open txs, want %d", b2.OpenTxs(), wantOpen)
	}

	s2, err := New(Config{}, clusterBackendDurable(b2, log2, DurableOptions{SnapshotEvery: 64, Replay: info2}))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		_ = s2.Drain(context.Background())
		_ = log2.Close()
		b2.Close()
	})
	c2 := NewClient[cluster.Op, DecisionJSON](ts2.URL, cluster.Workload, 1)
	got = submitAll(t, c2, ops[cut:])
	checkAdmissionLines(t, got, want[cut:], "post-recovery remainder")
}

// TestRouterAdmissionLoopback: a served router must route a plain
// admission stream across its backends — both codecs on the same
// /v1/admission route — and the stats body's reconciliation ledger must
// account for every operation exactly after a drained run.
func TestRouterAdmissionLoopback(t *testing.T) {
	ins := testInstance(t, 31, 400)
	acfg := core.DefaultConfig()
	acfg.Seed = 5
	bcfg := cluster.BackendConfig{Engine: engine.Config{Shards: 1, Algorithm: acfg}}

	const nb = 2
	ring, err := cluster.NewRing(len(ins.Capacities), nb, 0)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*cluster.Client, nb)
	backends := make([]*cluster.Backend, nb)
	for i := 0; i < nb; i++ {
		bcaps, err := ring.Caps(ins.Capacities, i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cluster.NewBackend(bcaps, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = b
		bs, err := New(Config{}, ClusterBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		bts := httptest.NewServer(bs.Handler())
		t.Cleanup(func() {
			bts.Close()
			_ = bs.Drain(context.Background())
			b.Close()
		})
		clients[i] = cluster.NewClient(bts.URL, cluster.RetryPolicy{})
	}

	router, err := cluster.NewRouter(ins.Capacities, clients, cluster.RouterConfig{Backend: bcfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r := router.Ring(); r.Backends() != nb || r.NumEdges() != len(ins.Capacities) {
		t.Fatalf("router ring %d backends / %d edges, want %d / %d",
			r.Backends(), r.NumEdges(), nb, len(ins.Capacities))
	}

	s, err := New(Config{}, RouterAdmission(router))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain(context.Background())
		_ = router.Drain(context.Background())
		_ = router.Close()
	})

	// Half the stream over JSON, half over the wire protocol — the routed
	// /v1/admission speaks both, exactly like a single acserve.
	half := len(ins.Requests) / 2
	jc := NewAdmissionClient(ts.URL, 1)
	wc := NewAdmissionWireClient(ts.URL, 1)
	lines := submitAll(t, jc, ins.Requests[:half])
	lines = append(lines, submitAll(t, wc, ins.Requests[half:])...)
	if len(lines) != len(ins.Requests) {
		t.Fatalf("got %d decision lines, want %d", len(lines), len(ins.Requests))
	}
	for i, l := range lines {
		if l.Error != "" {
			t.Fatalf("line %d carries a routing error: %s", i, l.Error)
		}
	}

	// A direct batch through the Service facade routes the same way.
	direct, err := router.SubmitBatch(context.Background(), ins.Requests[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 10 {
		t.Fatalf("direct batch returned %d decisions, want 10", len(direct))
	}
	if st := router.Stats(); st.Requests != int64(len(ins.Requests)+10) {
		t.Fatalf("router stats count %d requests, want %d", st.Requests, len(ins.Requests)+10)
	}

	// The stats body must mirror the ledger and reconcile exactly: no
	// backend down, no unsettled journal, acked == the backend's own
	// applied counter.
	var stats RouterStatsJSON
	if err := jc.Stats(context.Background(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != int64(len(ins.Requests)+10) {
		t.Fatalf("stats body counts %d requests, want %d", stats.Requests, len(ins.Requests)+10)
	}
	if stats.Rejected != stats.Requests-stats.Accepted {
		t.Fatalf("rejected %d != requests %d - accepted %d", stats.Rejected, stats.Requests, stats.Accepted)
	}
	if stats.CrossBackend == 0 {
		t.Fatal("random multi-edge traffic over 2 backends produced no cross-backend requests")
	}
	if len(stats.Backends) != nb {
		t.Fatalf("ledger carries %d backends, want %d", len(stats.Backends), nb)
	}
	for i, row := range stats.Backends {
		if row.Down {
			t.Fatalf("backend %d down: %s", i, row.Cause)
		}
		if row.Journal != 0 {
			t.Fatalf("backend %d holds %d unsettled journaled ops", i, row.Journal)
		}
		if applied := backends[i].Stats().Requests; row.Acked != applied {
			t.Fatalf("backend %d: ledger acked %d != backend applied %d", i, row.Acked, applied)
		}
		if row.Fingerprint != backends[i].Fingerprint() {
			t.Fatalf("backend %d: ledger fingerprint %q != backend %q", i, row.Fingerprint, backends[i].Fingerprint())
		}
	}
}

// TestRouterStreamOrdered: a request stream submitted through the router
// in batches must come back in submission order — strictly increasing
// router IDs, no failed decisions — over a live backend.
func TestRouterStreamOrdered(t *testing.T) {
	caps := make([]int, 8)
	for i := range caps {
		caps[i] = 4
	}
	acfg := core.DefaultConfig()
	acfg.Seed = 5
	bcfg := cluster.BackendConfig{Engine: engine.Config{Shards: 1, Algorithm: acfg}}
	b, err := cluster.NewBackend(caps, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := New(Config{}, ClusterBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(bs.Handler())
	t.Cleanup(func() {
		bts.Close()
		_ = bs.Drain(context.Background())
		b.Close()
	})

	router, err := cluster.NewRouter(caps, []*cluster.Client{cluster.NewClient(bts.URL, cluster.RetryPolicy{})},
		cluster.RouterConfig{Backend: bcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })
	if err := router.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}

	const n = 40
	reqs := make([]problem.Request, n)
	for i := range reqs {
		reqs[i] = problem.Request{Edges: []int{i % len(caps)}, Cost: 1}
	}
	prev := -1
	for lo := 0; lo < n; lo += 7 {
		ds, err := router.SubmitBatch(context.Background(), reqs[lo:min(lo+7, n)])
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range ds {
			if d.Err != nil {
				t.Fatalf("decision %d failed: %v", lo+i, d.Err)
			}
			if d.ID <= prev {
				t.Fatalf("decision %d has ID %d after %d", lo+i, d.ID, prev)
			}
			prev = d.ID
		}
	}
	if got := router.Stats().Requests; got != n {
		t.Fatalf("router counted %d requests, want %d", got, n)
	}
}
