package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"admission/internal/core"
	"admission/internal/graph"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/shard"
	"admission/internal/workload"
)

// testInstance builds an oversubscribed random-graph workload.
func testInstance(t testing.TB, seed uint64, n int, unit bool) *problem.Instance {
	t.Helper()
	r := rng.New(seed)
	g, err := graph.Random(8, 32, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	model := workload.CostUniform
	if unit {
		model = workload.CostUnit
	}
	ins, err := workload.RandomTraffic(g, n, model, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestSingleShardMatchesUnsharded is the determinism contract: one shard and
// one submitting goroutine reproduce the unsharded §3 algorithm
// decision-for-decision given the same seed.
func TestSingleShardMatchesUnsharded(t *testing.T) {
	for _, unit := range []bool{false, true} {
		t.Run(fmt.Sprintf("unit=%v", unit), func(t *testing.T) {
			ins := testInstance(t, 42, 400, unit)
			acfg := core.DefaultConfig()
			if unit {
				acfg = core.UnweightedConfig()
			}
			acfg.Seed = 9001

			ref, err := core.NewRandomized(ins.Capacities, acfg)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(ins.Capacities, Config{Shards: 1, Algorithm: acfg})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			for id, req := range ins.Requests {
				want, err := ref.Offer(id, req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Submit(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if got.ID != id {
					t.Fatalf("request %d: engine assigned ID %d", id, got.ID)
				}
				if got.Accepted != want.Accepted {
					t.Fatalf("request %d: engine accepted=%v, unsharded=%v", id, got.Accepted, want.Accepted)
				}
				wantPre := problem.SortedCopy(want.Preempted)
				gotPre := problem.SortedCopy(got.Preempted)
				if fmt.Sprint(wantPre) != fmt.Sprint(gotPre) {
					t.Fatalf("request %d: engine preempted %v, unsharded %v", id, gotPre, wantPre)
				}
				if got.CrossShard {
					t.Fatalf("request %d: cross-shard on a single-shard engine", id)
				}
			}
			if got, want := eng.RejectedCost(), ref.RejectedCost(); got != want {
				t.Fatalf("rejected cost: engine %v, unsharded %v", got, want)
			}
		})
	}
}

// TestShardedMatchesPerShardReference: with K shards and requests that each
// stay within one shard, the engine's decisions match K independent
// unsharded instances driven with the same per-shard arrival order.
func TestShardedMatchesPerShardReference(t *testing.T) {
	const k = 4
	// Bundle graph: 4 groups of 8 parallel edges; PartitionRange keeps each
	// group in one shard.
	caps := make([]int, 32)
	for i := range caps {
		caps[i] = 3
	}
	parts, err := graph.PartitionRange(len(caps), k)
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.UnweightedConfig()
	acfg.Seed = 7

	// Reference: one unsharded instance per shard, over local capacities.
	refs := make([]*core.Randomized, k)
	nextLocal := make([]int, k)
	for s := 0; s < k; s++ {
		local := make([]int, len(parts[s]))
		for i, ge := range parts[s] {
			local[i] = caps[ge]
		}
		cfg := acfg
		cfg.Seed = shard.Seed(acfg.Seed, s)
		refs[s], err = core.NewRandomized(local, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}

	eng, err := New(caps, Config{Partition: parts, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	r := rng.New(3)
	for i := 0; i < 600; i++ {
		s := r.Intn(k)
		// 1-2 random edges inside shard s (local index == ge - 8s here).
		ge := parts[s][r.Intn(len(parts[s]))]
		edges := []int{ge}
		if r.Bernoulli(0.5) {
			ge2 := parts[s][r.Intn(len(parts[s]))]
			if ge2 != ge {
				edges = append(edges, ge2)
			}
		}
		req := problem.Request{Edges: edges, Cost: 1}

		local := make([]int, len(edges))
		for j, e := range edges {
			local[j] = e - parts[s][0]
		}
		want, err := refs[s].Offer(nextLocal[s], problem.Request{Edges: local, Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		nextLocal[s]++

		got, err := eng.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accepted != want.Accepted || len(got.Preempted) != len(want.Preempted) {
			t.Fatalf("request %d (shard %d): engine (%v,%d preempted), reference (%v,%d preempted)",
				i, s, got.Accepted, len(got.Preempted), want.Accepted, len(want.Preempted))
		}
	}
	var wantCost float64
	for _, ref := range refs {
		wantCost += ref.RejectedCost()
	}
	if got := eng.RejectedCost(); got != wantCost {
		t.Fatalf("rejected cost: engine %v, per-shard references %v", got, wantCost)
	}
}

// TestCrossShardTwoPhase exercises the reserve/commit/abort path
// deterministically on two single-edge shards.
func TestCrossShardTwoPhase(t *testing.T) {
	caps := []int{2, 2}
	acfg := core.DefaultConfig()
	// Disable the probabilistic machinery's influence: with threshold and
	// probability factors at paper defaults and no overload the shards
	// reject nothing, so decisions are deterministic here.
	eng, err := New(caps, Config{Shards: 2, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Shards() != 2 {
		t.Fatalf("want 2 shards, got %d", eng.Shards())
	}

	span := problem.Request{Edges: []int{0, 1}, Cost: 5}

	// Two spanning requests fit (capacity 2 each side).
	for i := 0; i < 2; i++ {
		d, err := eng.Submit(context.Background(), span)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Accepted || !d.CrossShard {
			t.Fatalf("spanning request %d: want cross-shard accept, got %+v", i, d)
		}
	}
	// Third spanning request finds no free slot on either edge: rejected,
	// reservations rolled back.
	d, err := eng.Submit(context.Background(), span)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Fatalf("third spanning request: want rejection, got %+v", d)
	}
	st := eng.Snapshot()
	if st.CrossShard != 3 || st.CrossShardAccepted != 2 {
		t.Fatalf("cross-shard counters: %+v", st)
	}
	if st.RejectedCost != 5 {
		t.Fatalf("rejected cost: want 5, got %v", st.RejectedCost)
	}
	for e, load := range st.Loads {
		if load != 2 {
			t.Fatalf("edge %d: want load 2 (two reservations), got %d", e, load)
		}
	}
}

// TestCrossShardAbortReleases: a partial grant must be rolled back so the
// refused capacity stays usable by later requests.
func TestCrossShardAbortReleases(t *testing.T) {
	caps := []int{1, 1}
	eng, err := New(caps, Config{Shards: 2, Algorithm: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Fill shard 1's only edge with a local request.
	if d, err := eng.Submit(context.Background(), problem.Request{Edges: []int{1}, Cost: 1}); err != nil || !d.Accepted {
		t.Fatalf("local fill: %+v, %v", d, err)
	}
	// Spanning request: shard 0 grants, shard 1 refuses → abort.
	d, err := eng.Submit(context.Background(), problem.Request{Edges: []int{0, 1}, Cost: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Fatalf("spanning request into a full shard: want rejection, got %+v", d)
	}
	// Shard 0's slot must have been released: a local request fits.
	d, err = eng.Submit(context.Background(), problem.Request{Edges: []int{0}, Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("edge 0 still reserved after abort: %+v", d)
	}
}

// TestClosedEngineIsCollectable serves batches that end on the shard
// loops, closes the engine and drops it: one garbage collection later its
// shard state must be gone. The batches go back to a package-level pool,
// and a pooled batch that still pointed at the runtime would keep every
// shard's state alive into the next engine's lifetime.
func TestClosedEngineIsCollectable(t *testing.T) {
	ins := testInstance(t, 5, 400, false)
	eng, err := New(ins.Capacities, Config{Shards: 4, Algorithm: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(ins.Requests); lo += 100 {
		if _, err := eng.SubmitBatch(context.Background(), ins.Requests[lo:lo+100]); err != nil {
			t.Fatal(err)
		}
	}
	state := weak.Make(eng.shards[0])
	eng.Close()
	eng = nil
	runtime.GC()
	if state.Value() != nil {
		t.Fatal("a closed, dropped engine's shard state survived a garbage collection")
	}
}

// TestConcurrentSubmits hammers a sharded engine from many goroutines (run
// under -race) and then verifies global feasibility and exact cost
// accounting from the decision log.
func TestConcurrentSubmits(t *testing.T) {
	ins := testInstance(t, 99, 2000, false)
	parts, err := graph.PartitionRange(len(ins.Capacities), 4)
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.DefaultConfig()
	acfg.Seed = 5
	eng, err := New(ins.Capacities, Config{Partition: parts, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		decisions []Decision
		costs     = map[int]float64{}
	)
	reqCh := make(chan problem.Request)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range reqCh {
				d, err := eng.Submit(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				decisions = append(decisions, d)
				costs[d.ID] = req.Cost
				mu.Unlock()
			}
		}()
	}
	for _, req := range ins.Requests {
		reqCh <- req
	}
	close(reqCh)
	wg.Wait()

	// Concurrent stats must not race with ongoing submission (exercised
	// above implicitly); here validate the final state after Close.
	eng.Close()
	if _, err := eng.Submit(context.Background(), ins.Requests[0]); err != ErrClosed {
		t.Fatalf("submit after close: want ErrClosed, got %v", err)
	}
	st := eng.Snapshot()

	if int(st.Requests) != len(ins.Requests) {
		t.Fatalf("requests: want %d, got %d", len(ins.Requests), st.Requests)
	}
	for e, load := range st.Loads {
		if load > ins.Capacities[e] {
			t.Fatalf("edge %d over capacity: load %d > %d", e, load, ins.Capacities[e])
		}
	}

	// Exact accounting: rejected cost == Σ all costs − Σ finally-accepted.
	finallyAccepted := map[int]bool{}
	for _, d := range decisions {
		if d.Accepted {
			finallyAccepted[d.ID] = true
		}
	}
	for _, d := range decisions {
		for _, p := range d.Preempted {
			delete(finallyAccepted, p)
		}
	}
	var total, kept float64
	for id, c := range costs {
		total += c
		if finallyAccepted[id] {
			kept += c
		}
	}
	want := total - kept
	if diff := st.RejectedCost - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("rejected cost: engine %v, decision log %v", st.RejectedCost, want)
	}
	if int64(len(finallyAccepted)) > st.Accepted {
		t.Fatalf("finally accepted %d > accept decisions %d", len(finallyAccepted), st.Accepted)
	}
}

// TestConcurrentStats runs Stats and RejectedCost live against concurrent
// submitters (race detector coverage for the snapshot path), then Close
// concurrently with a straggler submitter.
func TestConcurrentStats(t *testing.T) {
	ins := testInstance(t, 7, 800, false)
	eng, err := New(ins.Capacities, Config{Shards: 3, Algorithm: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, req := range ins.Requests {
			if _, err := eng.Submit(context.Background(), req); err != nil && err != ErrClosed {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			st := eng.Snapshot()
			for e, load := range st.Loads {
				if load > ins.Capacities[e] {
					t.Errorf("edge %d over capacity in live snapshot: %d", e, load)
					return
				}
			}
			_ = eng.RejectedCost()
		}
	}()
	wg.Wait()
	eng.Close()
	eng.Close() // idempotent
	_ = eng.Snapshot()
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	good := core.DefaultConfig()
	cases := []struct {
		name string
		caps []int
		cfg  Config
	}{
		{"no edges", nil, Config{Shards: 1, Algorithm: good}},
		{"bad capacity", []int{2, 0}, Config{Shards: 1, Algorithm: good}},
		{"bad algorithm", []int{2}, Config{Shards: 1}},
		{"empty shard", []int{2, 2}, Config{Partition: [][]int{{0, 1}, {}}, Algorithm: good}},
		{"duplicate edge", []int{2, 2}, Config{Partition: [][]int{{0, 1}, {1}}, Algorithm: good}},
		{"missing edge", []int{2, 2}, Config{Partition: [][]int{{0}}, Algorithm: good}},
		{"out of range", []int{2, 2}, Config{Partition: [][]int{{0, 1}, {7}}, Algorithm: good}},
	}
	for _, tc := range cases {
		if _, err := New(tc.caps, tc.cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	// Shards beyond the edge count clamp rather than fail.
	eng, err := New([]int{2, 2}, Config{Shards: 16, Algorithm: good})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 2 {
		t.Fatalf("want clamp to 2 shards, got %d", eng.Shards())
	}
	eng.Close()
}

// TestUnweightedCostRejected: unweighted engines refuse non-unit costs
// before touching any shard.
func TestUnweightedCostRejected(t *testing.T) {
	eng, err := New([]int{2}, Config{Shards: 1, Algorithm: core.UnweightedConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Submit(context.Background(), problem.Request{Edges: []int{0}, Cost: 2}); err == nil {
		t.Fatal("want cost validation error")
	}
}

// TestCrossShardReserveExhaustedFractionalCapacity is a regression test: a
// weighted workload whose permanent accepts (§2 R_big) exhaust an edge's
// fractional adjusted capacity used to make cross-shard reservations on that
// edge fail with "no capacity left to shrink" errors out of Submit, because
// the reserve pre-check consulted only the integral free slots. Reserves must
// instead refuse cleanly (cross-shard rejection), and Submit must never
// error on valid input.
func TestCrossShardReserveExhaustedFractionalCapacity(t *testing.T) {
	caps := []int{4, 4, 4, 4, 4, 4, 4, 4}
	parts, err := graph.PartitionRange(len(caps), 4)
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.DefaultConfig()
	acfg.Seed = 17
	eng, err := New(caps, Config{Partition: parts, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Heavily overloaded two-edge cross-shard requests with spread costs: α
	// settles near the cheap end, so expensive arrivals permanently accept
	// and drain the fractional capacities.
	r := rng.New(4242)
	const workers = 8
	var wg sync.WaitGroup
	reqCh := make(chan problem.Request)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Keep draining after a failure so the feeder never blocks on an
			// abandoned channel.
			for req := range reqCh {
				if t.Failed() {
					continue
				}
				if _, err := eng.Submit(context.Background(), req); err != nil {
					t.Errorf("Submit: %v", err)
				}
			}
		}()
	}
	for i := 0; i < 4000; i++ {
		perm := r.Perm(len(caps))
		k := 1 + r.Intn(3)
		reqCh <- problem.Request{Edges: append([]int(nil), perm[:k]...), Cost: float64(1 + r.Intn(9))}
	}
	close(reqCh)
	wg.Wait()

	st := eng.Snapshot()
	for e, l := range st.Loads {
		if l > caps[e] {
			t.Fatalf("edge %d load %d exceeds capacity %d", e, l, caps[e])
		}
	}
}
