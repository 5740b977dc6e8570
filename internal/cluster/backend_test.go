package cluster

import (
	"context"
	"errors"
	"testing"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/rng"
)

// testEngineConfig is the shared engine configuration of the backend
// tests (1 shard, fixed seed — fully deterministic).
func testEngineConfig() engine.Config {
	acfg := core.DefaultConfig()
	acfg.Seed = 7
	return engine.Config{Shards: 1, Algorithm: acfg}
}

func newTestBackend(t testing.TB, caps []int) *Backend {
	t.Helper()
	b, err := NewBackend(caps, BackendConfig{Engine: testEngineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestBackendOffersMatchEngine replays the same offer stream into a
// backend and a bare engine: decisions must be identical — the backend
// adds the transaction table, nothing else.
func TestBackendOffersMatchEngine(t *testing.T) {
	ctx := context.Background()
	caps := []int{2, 1, 3}
	b := newTestBackend(t, caps)
	eng, err := engine.New(caps, testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	r := rng.New(11)
	for i := 0; i < 60; i++ {
		edges := []int{r.Intn(3)}
		if r.Intn(2) == 0 {
			edges = append(edges, (edges[0]+1)%3)
		}
		bd, berr := b.Submit(ctx, Op{Kind: OpOffer, Edges: edges, Cost: 1})
		ed, eerr := eng.Submit(ctx, problem.Request{Edges: edges, Cost: 1})
		if (berr == nil) != (eerr == nil) {
			t.Fatalf("offer %d: backend err %v, engine err %v", i, berr, eerr)
		}
		if bd.ID != ed.ID || bd.Accepted != ed.Accepted || bd.CrossShard != ed.CrossShard {
			t.Fatalf("offer %d diverged: backend %+v, engine %+v", i, bd, ed)
		}
	}
	if b.StateDigest() != eng.StateDigest() {
		t.Fatalf("state digests diverged: backend %016x, engine %016x", b.StateDigest(), eng.StateDigest())
	}
}

// TestBackendReserveCommit walks the two-phase happy path and checks the
// capacity actually moves: a committed reservation occupies its edge.
func TestBackendReserveCommit(t *testing.T) {
	ctx := context.Background()
	b := newTestBackend(t, []int{1, 1})

	d, err := b.Submit(ctx, Op{Kind: OpReserve, Tx: 7, Edges: []int{0}})
	if err != nil || !d.Accepted {
		t.Fatalf("reserve refused: %+v err %v", d, err)
	}
	if got := b.OpenTxs(); got != 1 {
		t.Fatalf("open transactions after grant: %d, want 1", got)
	}
	if d, err = b.Submit(ctx, Op{Kind: OpCommit, Tx: 7}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := b.OpenTxs(); got != 0 {
		t.Fatalf("open transactions after commit: %d, want 0", got)
	}
	// Edge 0 is full: an offer against it must be refused; edge 1 is free.
	if d, err = b.Submit(ctx, Op{Kind: OpOffer, Edges: []int{0}, Cost: 1}); err != nil || d.Accepted {
		t.Fatalf("offer on committed edge: %+v err %v, want clean refusal", d, err)
	}
	if d, err = b.Submit(ctx, Op{Kind: OpOffer, Edges: []int{1}, Cost: 1}); err != nil || !d.Accepted {
		t.Fatalf("offer on free edge: %+v err %v, want accept", d, err)
	}
}

// TestBackendReserveAbort checks an aborted reservation returns its
// capacity.
func TestBackendReserveAbort(t *testing.T) {
	ctx := context.Background()
	b := newTestBackend(t, []int{1})

	if d, err := b.Submit(ctx, Op{Kind: OpReserve, Tx: 1, Edges: []int{0}}); err != nil || !d.Accepted {
		t.Fatalf("reserve: %+v err %v", d, err)
	}
	// Held: a competing offer is refused.
	if d, err := b.Submit(ctx, Op{Kind: OpOffer, Edges: []int{0}, Cost: 1}); err != nil || d.Accepted {
		t.Fatalf("offer against a held reservation: %+v err %v, want refusal", d, err)
	}
	if _, err := b.Submit(ctx, Op{Kind: OpAbort, Tx: 1}); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if got := b.OpenTxs(); got != 0 {
		t.Fatalf("open transactions after abort: %d, want 0", got)
	}
	if d, err := b.Submit(ctx, Op{Kind: OpOffer, Edges: []int{0}, Cost: 1}); err != nil || !d.Accepted {
		t.Fatalf("offer after abort: %+v err %v, want accept", d, err)
	}
}

// TestBackendSettleUnknownTx pins the protocol's crash-safety primitive:
// settling a transaction the backend never granted is a deterministic
// no-op that still consumes exactly one engine ID.
func TestBackendSettleUnknownTx(t *testing.T) {
	ctx := context.Background()
	b := newTestBackend(t, []int{1})

	before := b.Stats().Requests
	d, err := b.Submit(ctx, Op{Kind: OpCommit, Tx: 999})
	if err != nil {
		t.Fatalf("unknown-tx commit: %v", err)
	}
	if d.Accepted || !d.CrossShard {
		t.Fatalf("unknown-tx commit decided %+v, want refused cross-shard no-op", d)
	}
	if d, err = b.Submit(ctx, Op{Kind: OpAbort, Tx: 999}); err != nil || d.Accepted {
		t.Fatalf("unknown-tx abort: %+v err %v", d, err)
	}
	if got := b.Stats().Requests - before; got != 2 {
		t.Fatalf("two no-op settles consumed %d IDs, want 2", got)
	}
	// A refused reservation also leaves no transaction behind: settling it
	// is the same no-op. Fill the edge first so the reserve cannot fit.
	if d, err = b.Submit(ctx, Op{Kind: OpOffer, Edges: []int{0}, Cost: 1}); err != nil || !d.Accepted {
		t.Fatalf("filling offer: %+v err %v", d, err)
	}
	if d, err = b.Submit(ctx, Op{Kind: OpReserve, Tx: 5, Edges: []int{0}}); err != nil {
		t.Fatalf("overcommitted reserve: %v", err)
	} else if d.Accepted {
		t.Fatalf("reserve on a full edge granted: %+v", d)
	}
	if got := b.OpenTxs(); got != 0 {
		t.Fatalf("refused reserve left %d open transactions", got)
	}
}

// TestBackendValidate pins the operation-level refusals.
func TestBackendValidate(t *testing.T) {
	b := newTestBackend(t, []int{1, 1})
	for _, tc := range []struct {
		name string
		op   Op
	}{
		{"commit with edges", Op{Kind: OpCommit, Tx: 1, Edges: []int{0}}},
		{"abort with edges", Op{Kind: OpAbort, Tx: 1, Edges: []int{1}}},
		{"reserve out of range", Op{Kind: OpReserve, Tx: 1, Edges: []int{5}}},
		{"reserve duplicate edge", Op{Kind: OpReserve, Tx: 1, Edges: []int{0, 0, 0}}},
		{"offer out of range", Op{Kind: OpOffer, Edges: []int{-1}, Cost: 1}},
		{"unknown kind", Op{Kind: OpKind(9)}},
	} {
		if err := b.Validate(tc.op); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	if err := b.Validate(Op{Kind: OpReserve, Tx: 1, Edges: []int{0, 0}}); err == nil {
		t.Error("reserve with a duplicated edge validated")
	}
}

// TestBackendBatchAtomicValidation checks an invalid operation fails the
// whole batch before anything is applied.
func TestBackendBatchAtomicValidation(t *testing.T) {
	ctx := context.Background()
	b := newTestBackend(t, []int{1})
	before := b.Stats().Requests
	_, err := b.SubmitBatch(ctx, []Op{
		{Kind: OpOffer, Edges: []int{0}, Cost: 1},
		{Kind: OpCommit, Tx: 1, Edges: []int{0}}, // invalid: settle with edges
	})
	if err == nil {
		t.Fatal("batch with an invalid op succeeded")
	}
	if got := b.Stats().Requests; got != before {
		t.Fatalf("failed batch applied %d operations", got-before)
	}
}

// TestBackendClosed checks submissions fail cleanly after Close.
func TestBackendClosed(t *testing.T) {
	ctx := context.Background()
	b := newTestBackend(t, []int{1})
	b.Close()
	if _, err := b.Submit(ctx, Op{Kind: OpOffer, Edges: []int{0}, Cost: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if _, err := b.SubmitBatch(ctx, []Op{{Kind: OpOffer, Edges: []int{0}, Cost: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: %v, want ErrClosed", err)
	}
}

// TestBackendStream pushes a mixed operation stream through the batch
// path — offers pipelined through the engine in runs, reserves and settles
// decided inline — and checks IDs stay contiguous and the settles find the
// transaction table the history implies.
func TestBackendStream(t *testing.T) {
	ctx := context.Background()
	b := newTestBackend(t, []int{2, 2})
	ops := []Op{
		{Kind: OpOffer, Edges: []int{0}, Cost: 1},
		{Kind: OpReserve, Tx: 1, Edges: []int{1}},
		{Kind: OpCommit, Tx: 1},
		{Kind: OpAbort, Tx: 2}, // unknown: no-op
		{Kind: OpOffer, Edges: []int{0, 1}, Cost: 1},
		{Kind: OpOffer, Edges: []int{1}, Cost: 1},
	}
	ds, err := b.SubmitBatch(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(ops) {
		t.Fatalf("%d decisions for %d ops", len(ds), len(ops))
	}
	for i, d := range ds {
		if d.ID != i {
			t.Fatalf("decision %d carries ID %d", i, d.ID)
		}
	}
	if !ds[1].Accepted || !ds[2].Accepted || ds[3].Accepted {
		t.Fatalf("reserve/commit/unknown abort = %v/%v/%v, want true/true/false", ds[1].Accepted, ds[2].Accepted, ds[3].Accepted)
	}
	if n := b.OpenTxs(); n != 0 {
		t.Fatalf("%d transactions left open", n)
	}
}
