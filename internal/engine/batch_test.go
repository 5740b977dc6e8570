package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"admission/internal/core"
	"admission/internal/graph"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/workload"
)

// streamInstance builds an oversubscribed workload on a small random graph.
func streamInstance(t testing.TB, seed uint64, n int) *problem.Instance {
	t.Helper()
	r := rng.New(seed)
	g, err := graph.Random(8, 24, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := workload.RandomTraffic(g, n, workload.CostUniform, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestSubmitBatchMatchesSequential is the batching contract: SubmitBatch
// over a slice produces the identical decision stream and final state to
// calling Submit on each element in order, for any shard count and batch
// size. On four shards a third of the requests cross shards, so runs are
// cut by cross-shard reservations throughout: sending a shard's pending
// run after such a reservation instead of before it changes decisions.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ins := testInstance(t, 7, 500, false)
			acfg := core.DefaultConfig()
			acfg.Seed = 11
			mk := func() *Engine {
				eng, err := New(ins.Capacities, Config{Shards: shards, Algorithm: acfg})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}

			seq := mk()
			defer seq.Close()
			want := make([]Decision, 0, len(ins.Requests))
			cross := 0
			for _, r := range ins.Requests {
				d, err := seq.Submit(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, d)
				if d.CrossShard {
					cross++
				}
			}
			if shards > 1 && 10*cross < 3*len(want) {
				t.Fatalf("only %d of %d requests cross shards, want at least 30%%", cross, len(want))
			}

			for _, size := range []int{1, 97, len(ins.Requests)} {
				t.Run(fmt.Sprintf("batch=%d", size), func(t *testing.T) {
					bat := mk()
					defer bat.Close()
					got := make([]Decision, 0, len(ins.Requests))
					for lo := 0; lo < len(ins.Requests); lo += size {
						ds, err := bat.SubmitBatch(context.Background(), ins.Requests[lo:min(lo+size, len(ins.Requests))])
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, ds...)
					}
					if len(got) != len(want) {
						t.Fatalf("got %d decisions, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID || got[i].Accepted != want[i].Accepted ||
							got[i].CrossShard != want[i].CrossShard || !slices.Equal(got[i].Preempted, want[i].Preempted) ||
							got[i].Err != nil {
							t.Fatalf("decision %d: got %+v, want %+v", i, got[i], want[i])
						}
					}
					if a, b := seq.StateDigest(), bat.StateDigest(); a != b {
						t.Fatalf("state digest %#x, sequential %#x", b, a)
					}
				})
			}
		})
	}
}

// TestStreamMatchesSubmit feeds one request stream to a four-shard engine
// through interleaved Submit calls and SubmitBatch calls of varying sizes,
// and the same stream to a twin through Submit alone: Submit is a batch of
// one on the same dispatch path, so the decisions, their IDs and the final
// state must be identical.
func TestStreamMatchesSubmit(t *testing.T) {
	ins := streamInstance(t, 31, 400)
	acfg := core.DefaultConfig()
	acfg.Seed = 9
	mk := func() *Engine {
		eng, err := New(ins.Capacities, Config{Shards: 4, Algorithm: acfg})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ctx := context.Background()

	ref := mk()
	defer ref.Close()
	want := make([]Decision, 0, len(ins.Requests))
	for _, r := range ins.Requests {
		d, err := ref.Submit(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}

	eng := mk()
	defer eng.Close()
	got := make([]Decision, 0, len(ins.Requests))
	for lo, k := 0, 0; lo < len(ins.Requests); k++ {
		if k%4 == 3 {
			d, err := eng.Submit(ctx, ins.Requests[lo])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, d)
			lo++
			continue
		}
		hi := min(lo+k%13+1, len(ins.Requests))
		ds, err := eng.SubmitBatch(ctx, ins.Requests[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ds...)
		lo = hi
	}
	if len(got) != len(want) {
		t.Fatalf("got %d decisions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Accepted != want[i].Accepted ||
			got[i].CrossShard != want[i].CrossShard || !slices.Equal(got[i].Preempted, want[i].Preempted) {
			t.Fatalf("decision %d diverged: mixed %+v, submit %+v", i, got[i], want[i])
		}
	}
	if a, b := ref.StateDigest(), eng.StateDigest(); a != b {
		t.Fatalf("state digest %#x, submit-only %#x", b, a)
	}
}

// TestSubmitBatchValidationAtomic checks that a batch containing an invalid
// request is rejected wholesale before any dispatch.
func TestSubmitBatchValidationAtomic(t *testing.T) {
	eng, err := New([]int{2, 2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = eng.SubmitBatch(context.Background(), []problem.Request{
		{Edges: []int{0}, Cost: 1},
		{Edges: []int{5}, Cost: 1}, // out of range
	})
	if err == nil {
		t.Fatal("want validation error")
	}
	if st := eng.Snapshot(); st.Requests != 0 {
		t.Fatalf("batch partially submitted: %d requests counted", st.Requests)
	}
}

// TestSubmitBatchPrevalidatedMatches checks the hot-path variant produces
// the identical decision stream to SubmitBatch on already-valid input.
func TestSubmitBatchPrevalidatedMatches(t *testing.T) {
	ins := testInstance(t, 15, 300, false)
	acfg := core.DefaultConfig()
	acfg.Seed = 2
	a, err := New(ins.Capacities, Config{Shards: 2, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(ins.Capacities, Config{Shards: 2, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	da, err := a.SubmitBatch(context.Background(), ins.Requests)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.SubmitBatchPrevalidated(context.Background(), ins.Requests)
	if err != nil {
		t.Fatal(err)
	}
	for i := range da {
		if da[i].Accepted != db[i].Accepted || da[i].ID != db[i].ID || db[i].Err != nil {
			t.Fatalf("decision %d: %+v vs %+v", i, da[i], db[i])
		}
	}
}

// TestSubmitBatchClosed checks ErrClosed and the empty-batch fast path.
func TestSubmitBatchClosed(t *testing.T) {
	eng, err := New([]int{2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ds, err := eng.SubmitBatch(context.Background(), nil); err != nil || ds != nil {
		t.Fatalf("empty batch: got (%v, %v)", ds, err)
	}
	eng.Close()
	if _, err := eng.SubmitBatch(context.Background(), []problem.Request{{Edges: []int{0}, Cost: 1}}); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestShardStatsReconcile checks that the per-shard view sums to the
// aggregate Stats view, and that occupancy inputs are sane.
func TestShardStatsReconcile(t *testing.T) {
	ins := testInstance(t, 21, 600, false)
	acfg := core.DefaultConfig()
	acfg.Seed = 3
	eng, err := New(ins.Capacities, Config{Shards: 4, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SubmitBatch(context.Background(), ins.Requests); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	st := eng.Snapshot()
	per := eng.ShardStats()
	if len(per) != eng.Shards() {
		t.Fatalf("got %d shard stats, want %d", len(per), eng.Shards())
	}
	var load, capSum, preempt int
	var rejected float64
	for _, s := range per {
		if s.Load < 0 || s.Load > s.Capacity {
			t.Fatalf("shard %d: load %d outside [0, %d]", s.Shard, s.Load, s.Capacity)
		}
		load += s.Load
		capSum += s.Capacity
		preempt += s.Preemptions
		rejected += s.RejectedCost
	}
	wantCap := 0
	for _, c := range ins.Capacities {
		wantCap += c
	}
	if capSum != wantCap {
		t.Fatalf("shard capacities sum to %d, want %d", capSum, wantCap)
	}
	wantLoad := 0
	for _, l := range st.Loads {
		wantLoad += l
	}
	if load != wantLoad {
		t.Fatalf("shard loads sum to %d, Stats.Loads sums to %d", load, wantLoad)
	}
	if int64(preempt) != st.Preemptions {
		t.Fatalf("shard preemptions sum to %d, Stats has %d", preempt, st.Preemptions)
	}
	// Cross-shard rejected cost is accounted at the engine, not the shards.
	if rejected > st.RejectedCost {
		t.Fatalf("shard rejected cost %g exceeds aggregate %g", rejected, st.RejectedCost)
	}
}

// TestConcurrentSubmitBatch races SubmitBatch callers against each other
// and Stats readers; run with -race.
func TestConcurrentSubmitBatch(t *testing.T) {
	ins := testInstance(t, 33, 800, false)
	acfg := core.DefaultConfig()
	acfg.Seed = 5
	eng, err := New(ins.Capacities, Config{Shards: 4, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 4
	per := len(ins.Requests) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := lo; at < hi; at += 64 {
				end := min(at+64, hi)
				if _, err := eng.SubmitBatch(context.Background(), ins.Requests[at:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			eng.Snapshot()
			eng.ShardStats()
		}
	}()
	wg.Wait()
	eng.Close()
	st := eng.Snapshot()
	if st.Requests != int64(workers*per) {
		t.Fatalf("got %d requests, want %d", st.Requests, workers*per)
	}
	for e, load := range st.Loads {
		if load > ins.Capacities[e] {
			t.Fatalf("edge %d over capacity: %d > %d", e, load, ins.Capacities[e])
		}
	}
}

// TestStreamOrderedConcurrentWriters splits one request stream across
// several goroutines, each submitting its share in batches to one
// four-shard engine (run under -race): every batch gets a contiguous block
// of IDs in batch order, the blocks tile [0, N) exactly once, and the
// shard counters reconcile with the engine's.
func TestStreamOrderedConcurrentWriters(t *testing.T) {
	ins := streamInstance(t, 37, 600)
	acfg := core.DefaultConfig()
	acfg.Seed = 3
	eng, err := New(ins.Capacities, Config{Shards: 4, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const writers = 6
	seen := make([]bool, len(ins.Requests))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * 10; lo < len(ins.Requests); lo += writers * 10 {
				ds, err := eng.SubmitBatch(context.Background(), ins.Requests[lo:min(lo+10, len(ins.Requests))])
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				for i, d := range ds {
					if d.ID != ds[0].ID+i || d.ID >= len(seen) || seen[d.ID] {
						t.Errorf("writer %d: batch at %d decision %d has ID %d", w, lo, i, d.ID)
					} else {
						seen[d.ID] = true
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for id, ok := range seen {
		if !ok {
			t.Fatalf("ID %d never issued", id)
		}
	}
	assertDecided(t, eng, len(ins.Requests))
}

// TestStreamCancellation races cancellation against many concurrent
// submitters: goroutines submit a request stream in batches under
// contexts cancelled before they start or while they run. A batch that
// finds its context cancelled returns the context error before taking
// IDs; one that started is decided whole. After Drain the engine's
// request counter reconciles exactly with what the shards decided, so no
// batch was counted that its caller did not get.
func TestStreamCancellation(t *testing.T) {
	ins := streamInstance(t, 41, 300)
	acfg := core.DefaultConfig()
	acfg.Seed = 5
	eng, err := New(ins.Capacities, Config{Shards: 2, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 300
	var cancelled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if w%3 == 0 {
				cancel()
			} else {
				time.AfterFunc(time.Duration(w%7)*50*time.Microsecond, cancel)
			}
			for round := 0; round < 4; round++ {
				lo := (w*7 + round*31) % len(ins.Requests)
				_, err := eng.SubmitBatch(ctx, ins.Requests[lo:min(lo+16, len(ins.Requests))])
				if errors.Is(err, context.Canceled) {
					cancelled.Add(1)
					return
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d writers saw a cancellation", cancelled.Load(), writers)
	st := eng.Snapshot()
	assertDecided(t, eng, int(st.Requests))
	eng.Close()
	assertDecided(t, eng, int(st.Requests))
}

// TestSubmitWithCancelledContext checks Submit under an already-cancelled
// context: it returns promptly, never hangs, and the engine stays usable.
// (That it returns the context error and decides nothing is pinned by
// TestCancelledBatchDecidesNothing.)
func TestSubmitWithCancelledContext(t *testing.T) {
	eng, err := New([]int{4, 4}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = eng.Submit(ctx, problem.Request{Edges: []int{0}, Cost: 1})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit hung under a cancelled context")
	}
	// The engine still serves fresh traffic.
	if _, err := eng.Submit(context.Background(), problem.Request{Edges: []int{1}, Cost: 1}); err != nil {
		t.Fatalf("Submit after cancelled submit: %v", err)
	}
}

// TestSubmitBatchCancelledContext checks a whole stream submitted as one
// batch under a cancelled context fails with the context error, returns
// no decisions and counts no request; the engine then drains and closes
// cleanly.
func TestSubmitBatchCancelledContext(t *testing.T) {
	ins := streamInstance(t, 43, 64)
	eng, err := New(ins.Capacities, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, err := eng.SubmitBatch(ctx, ins.Requests)
	if !errors.Is(err, context.Canceled) || ds != nil {
		t.Fatalf("SubmitBatch under a cancelled context: %d decisions, err %v; want none and context.Canceled", len(ds), err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertDecided(t, eng, 0)
	eng.Close()
}

// TestCancelledBatchDecidesNothing pins the cancellation rule: ctx is
// checked once, before a batch takes its IDs. A one-shard batch, a
// two-shard batch, and a batch with a cross-shard request after a
// single-shard item, each under an already-cancelled context, fail with
// context.Canceled and decide nothing, so the next Submit gets ID 0 and
// is the only request counted.
func TestCancelledBatchDecidesNothing(t *testing.T) {
	eng, err := New([]int{4, 4, 4, 4, 4, 4, 4, 4}, Config{Shards: 4, Algorithm: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	req := func(edges ...int) problem.Request { return problem.Request{Edges: edges, Cost: 1} }
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		reqs []problem.Request
	}{
		{"one shard", []problem.Request{req(0), req(1)}},
		{"two shards", []problem.Request{req(0), req(2)}},
		{"cross-shard after a single-shard item", []problem.Request{req(0), req(1, 2), req(3)}},
	} {
		if ds, err := eng.SubmitBatch(dead, tc.reqs); !errors.Is(err, context.Canceled) || ds != nil {
			t.Errorf("%s batch: %d decisions, err %v; want none and context.Canceled", tc.name, len(ds), err)
		}
	}
	d, err := eng.Submit(context.Background(), req(0))
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().Requests; d.ID != 0 || n != 1 {
		t.Fatalf("next Submit got ID %d with %d requests counted, want ID 0 and 1", d.ID, n)
	}
}

// TestCancelledReserveTakesNoID checks that a reservation under an
// already-cancelled context fails before it takes an ID.
func TestCancelledReserveTakesNoID(t *testing.T) {
	eng, err := New([]int{4, 4, 4, 4}, Config{Shards: 2, Algorithm: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SubmitReserve(dead, []int{0, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitReserve under a cancelled context: %v, want context.Canceled", err)
	}
	d, err := eng.SubmitReserve(context.Background(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().Requests; d.ID != 0 || n != 1 {
		t.Fatalf("next SubmitReserve got ID %d with %d requests counted, want ID 0 and 1", d.ID, n)
	}
}

// assertDecided checks, at a quiescent point, that the engine counted n
// requests and that the shards decided exactly the single-shard ones among
// them.
func assertDecided(t *testing.T, eng *Engine, n int) {
	t.Helper()
	st := eng.Snapshot()
	total := 0
	for _, sh := range eng.ShardStats() {
		total += sh.Requests
	}
	if st.Requests != int64(n) || int64(total)+st.CrossShard != st.Requests {
		t.Fatalf("engine counted %d requests (%d cross-shard), shards decided %d, want %d",
			st.Requests, st.CrossShard, total, n)
	}
}
