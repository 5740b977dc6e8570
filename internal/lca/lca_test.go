package lca

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"admission/internal/core"
	"admission/internal/workload"
)

// testEngine builds a small engine over the named workload, failing the
// test on construction errors.
func testEngine(t *testing.T, name string, model workload.CostModel, n int, seed uint64, alg core.Config, workers int) *Engine {
	t.Helper()
	eng, err := New(Config{
		Source:    Source{Workload: name, Model: model, Capacity: 3, N: n, Seed: seed},
		Algorithm: alg,
		Workers:   workers,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return eng
}

func TestNewRejectsBadConfigs(t *testing.T) {
	base := Source{Workload: "random", Model: workload.CostUniform, Capacity: 3, N: 16, Seed: 1}
	if _, err := New(Config{Source: Source{Workload: "no-such", Capacity: 3, N: 16}, Algorithm: core.DefaultConfig()}); err == nil {
		t.Fatal("New accepted an unknown workload")
	}
	if _, err := New(Config{Source: base, Algorithm: core.Config{}}); err == nil {
		t.Fatal("New accepted a zero algorithm config")
	}
	// The unweighted algorithm over a non-unit cost model must fail at
	// construction, not on the first query.
	if _, err := New(Config{Source: base, Algorithm: core.UnweightedConfig()}); err == nil {
		t.Fatal("New accepted an unweighted algorithm over uniform costs")
	}
	// ... and succeed over unit costs.
	unit := base
	unit.Model = workload.CostUnit
	if _, err := New(Config{Source: unit, Algorithm: core.UnweightedConfig()}); err != nil {
		t.Fatalf("New rejected a valid unweighted config: %v", err)
	}
}

func TestValidate(t *testing.T) {
	eng := testEngine(t, "random", workload.CostUniform, 16, 1, core.DefaultConfig(), 2)
	defer eng.Close()
	if err := eng.Validate(Query{Pos: 0}); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if err := eng.Validate(Query{Pos: 15}); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	for _, q := range []Query{{Pos: -1}, {Pos: 16}} {
		if err := eng.Validate(q); err == nil {
			t.Fatalf("Validate accepted %+v", q)
		}
	}
	// Submit applies the same validation.
	if _, err := eng.Submit(context.Background(), Query{Pos: 99}); err == nil {
		t.Fatal("Submit accepted an out-of-range position")
	}
	// SubmitBatch validation is atomic: one bad query fails the whole batch.
	if _, err := eng.SubmitBatch(context.Background(), []Query{{Pos: 0}, {Pos: -2}}); err == nil {
		t.Fatal("SubmitBatch accepted a batch with an invalid query")
	}
}

func TestAccessors(t *testing.T) {
	eng := testEngine(t, "blocks", workload.CostUniform, 20, 9, core.DefaultConfig(), 3)
	defer eng.Close()
	src := eng.Source()
	if src.Workload != "blocks" || src.Seed != 9 || src.N != 20 {
		t.Fatalf("Source() = %+v", src)
	}
	if eng.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", eng.Workers())
	}
	if eng.Positions() != len(eng.Instance().Requests) {
		t.Fatal("Positions disagrees with the generated instance")
	}
	if eng.Algorithm().ThresholdFactor != core.DefaultConfig().ThresholdFactor {
		t.Fatal("Algorithm() drifted from the config")
	}
}

// TestBatchStreamSubmitAgree answers every position three ways — one
// SubmitBatch, a stream of small SubmitBatch calls, and Submit — and
// requires identical answers in order.
func TestBatchStreamSubmitAgree(t *testing.T) {
	eng := testEngine(t, "random", workload.CostUniform, 64, 5, core.DefaultConfig(), 4)
	defer eng.Close()
	ctx := context.Background()

	qs := make([]Query, eng.Positions())
	for i := range qs {
		qs[i] = Query{Pos: i}
	}
	batch, err := eng.SubmitBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("batch returned %d answers for %d queries", len(batch), len(qs))
	}

	for lo := 0; lo < len(qs); lo += 5 {
		as, err := eng.SubmitBatch(ctx, qs[lo:min(lo+5, len(qs))])
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range as {
			if fmt.Sprint(a) != fmt.Sprint(batch[lo+i]) {
				t.Fatalf("streamed answer %d = %+v, batch = %+v", lo+i, a, batch[lo+i])
			}
		}
	}

	for i, q := range qs[:8] {
		a, err := eng.Submit(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) != fmt.Sprint(batch[i]) {
			t.Fatalf("submit answer %d = %+v, batch = %+v", i, a, batch[i])
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := testEngine(t, "random", workload.CostUniform, 32, 2, core.DefaultConfig(), 2)
	defer eng.Close()
	ctx := context.Background()

	var wantReplayed, wantAccepted int64
	for pos := 0; pos < 10; pos++ {
		a, err := eng.Submit(ctx, Query{Pos: pos})
		if err != nil {
			t.Fatal(err)
		}
		wantReplayed += int64(a.Replayed)
		if a.Accepted {
			wantAccepted++
		}
	}
	st := eng.Stats()
	if st.Requests != 10 || st.Accepted != wantAccepted || st.Errors != 0 {
		t.Fatalf("Stats = %+v, want 10 requests, %d accepted", st, wantAccepted)
	}
	if int64(st.Objective) != wantReplayed {
		t.Fatalf("Objective = %v, want %d replayed arrivals", st.Objective, wantReplayed)
	}
	if st.Shards != eng.Workers() {
		t.Fatalf("Shards = %d, want worker bound %d", st.Shards, eng.Workers())
	}
}

func TestCloseAndDrain(t *testing.T) {
	eng := testEngine(t, "random", workload.CostUniform, 16, 4, core.DefaultConfig(), 2)
	ctx := context.Background()
	if _, err := eng.Submit(ctx, Query{Pos: 5}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if _, err := eng.Submit(ctx, Query{Pos: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := eng.SubmitBatch(ctx, []Query{{Pos: 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatch after Close: %v, want ErrClosed", err)
	}
	// Statistics remain readable and exact after Close.
	if st := eng.Stats(); st.Requests != 1 {
		t.Fatalf("Stats after Close = %+v", st)
	}
}

func TestCancellation(t *testing.T) {
	eng := testEngine(t, "random", workload.CostUniform, 16, 6, core.DefaultConfig(), 2)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Submit(ctx, Query{Pos: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit on cancelled ctx: %v", err)
	}
	qs := make([]Query, 64)
	for i := range qs {
		qs[i] = Query{Pos: i % eng.Positions()}
	}
	if _, err := eng.SubmitBatchPrevalidated(ctx, qs); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitBatchPrevalidated on cancelled ctx: %v", err)
	}
	// A batch of one runs on the calling goroutine alone, with the same
	// cancellation check as the fanned-out batch above.
	if _, err := eng.SubmitBatchPrevalidated(ctx, []Query{{Pos: 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("one-query SubmitBatchPrevalidated on cancelled ctx: %v", err)
	}
	if got := eng.Stats().Requests; got != 0 {
		t.Fatalf("cancelled submissions computed %d queries, want 0", got)
	}
}
