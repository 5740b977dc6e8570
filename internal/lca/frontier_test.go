package lca

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/rng"
	"admission/internal/workload"
)

// TestConcurrentExactQueriesShareFrontier has 8 goroutines ask one engine
// about shuffled positions through Submit, one SubmitBatch and a series of
// small SubmitBatch calls at once.
// Every answer must equal the 1-shard streaming engine's decision at that
// position, and the shared frontier must have simulated each arrival of
// the prefix exactly once.
func TestConcurrentExactQueriesShareFrontier(t *testing.T) {
	eng := testEngine(t, "random", workload.CostUniform, 96, 8, core.DefaultConfig(), 4)
	defer eng.Close()
	ins := eng.Instance()
	ctx := context.Background()

	seng, err := engine.New(ins.Capacities, engine.Config{Shards: 1, Algorithm: eng.Algorithm()})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(ins.Requests))
	for i, r := range ins.Requests {
		d, err := seng.Submit(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(d.ID, d.Accepted, d.Preempted)
	}
	seng.Close()

	const goroutines = 8
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		maxPos int
		fails  []string
	)
	check := func(qs []Query, as []Answer) {
		mu.Lock()
		defer mu.Unlock()
		for i, a := range as {
			if a.Err != nil {
				fails = append(fails, fmt.Sprintf("pos %d: %v", qs[i].Pos, a.Err))
			} else if got := fmt.Sprint(a.Pos, a.Accepted, a.Preempted); got != want[qs[i].Pos] || a.Replayed != qs[i].Pos+1 {
				fails = append(fails, fmt.Sprintf("pos %d: answered %s replayed %d, streaming decided %s",
					qs[i].Pos, got, a.Replayed, want[qs[i].Pos]))
			}
			maxPos = max(maxPos, qs[i].Pos)
		}
	}
	for g := 0; g < goroutines; g++ {
		// Each goroutine asks about a shuffled prefix of a different length,
		// so the frontier is extended and looked up in interleaved order.
		perm := rng.New(uint64(g) + 1).Perm(len(ins.Requests) - 4*g)
		qs := make([]Query, len(perm))
		for i, p := range perm {
			qs[i] = Query{Pos: p}
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				as := make([]Answer, len(qs))
				for i, q := range qs {
					as[i], _ = eng.Submit(ctx, q)
				}
				check(qs, as)
			case 1:
				as, err := eng.SubmitBatch(ctx, qs)
				if err != nil {
					t.Error(err)
					return
				}
				check(qs, as)
			case 2:
				as := make([]Answer, 0, len(qs))
				for lo := 0; lo < len(qs); lo += 7 {
					chunk, err := eng.SubmitBatch(ctx, qs[lo:min(lo+7, len(qs))])
					if err != nil {
						t.Error(err)
						return
					}
					as = append(as, chunk...)
				}
				check(qs, as)
			}
		}(g)
	}
	wg.Wait()
	if len(fails) > 0 {
		t.Fatalf("%d divergent answers, first: %s", len(fails), fails[0])
	}
	if got := eng.Simulated(); got != int64(maxPos+1) {
		t.Fatalf("Simulated() = %d, want max position + 1 = %d", got, maxPos+1)
	}
}

// TestExactReplayErrorIsSticky corrupts one arrival of the source order: a
// query before it is still answered, while every query at or past it
// reports the same replay failure, as an independent replay of its prefix
// would.
func TestExactReplayErrorIsSticky(t *testing.T) {
	eng := testEngine(t, "random", workload.CostUniform, 32, 3, core.DefaultConfig(), 2)
	defer eng.Close()
	ctx := context.Background()
	const bad = 10
	eng.ins.Requests[bad].Edges = nil

	if _, err := eng.Submit(ctx, Query{Pos: bad - 1}); err != nil {
		t.Fatalf("query before the corrupt arrival: %v", err)
	}
	for _, pos := range []int{bad + 5, bad, eng.Positions() - 1} {
		a, err := eng.Submit(ctx, Query{Pos: pos})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("replay failed at position %d", bad)) {
			t.Fatalf("query at %d: err %v, want the sticky failure at %d", pos, err, bad)
		}
		if a.Replayed != 0 || a.Accepted || a.Preempted != nil {
			t.Fatalf("failed answer carries a decision: %+v", a)
		}
	}
	if got := eng.Simulated(); got != bad+1 {
		t.Fatalf("Simulated() = %d, want %d: the frontier must stop at the failure", got, bad+1)
	}
	if st := eng.Stats(); st.Errors != 3 {
		t.Fatalf("Stats().Errors = %d, want 3", st.Errors)
	}
}

// TestSimulatedCountsEachArrivalOnce answers every position of a fresh
// engine in seeded order: the frontier simulates n arrivals, where
// independent prefix replays simulated n(n+1)/2.
func TestSimulatedCountsEachArrivalOnce(t *testing.T) {
	eng := testEngine(t, "blocks", workload.CostUniform, 40, 11, core.DefaultConfig(), 2)
	defer eng.Close()
	ctx := context.Background()
	n := eng.Positions()
	qs := make([]Query, n)
	for i, p := range rng.New(5).Perm(n) {
		qs[i] = Query{Pos: p}
	}
	as, err := eng.SubmitBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	var replayed int64
	for _, a := range as {
		replayed += int64(a.Replayed)
	}
	if got := eng.Simulated(); got != int64(n) {
		t.Fatalf("Simulated() = %d after all %d positions, want %d", got, n, n)
	}
	if want := int64(n * (n + 1) / 2); replayed != want {
		t.Fatalf("sum of Replayed = %d, want the prefix lengths' sum %d", replayed, want)
	}
}
