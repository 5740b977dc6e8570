package coverengine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"admission/internal/rng"
	"admission/internal/setcover"
)

// genInstance draws a deterministic random instance and arrival sequence.
func genInstance(t testing.TB, seed uint64, n, m int, weighted bool, arrivals int) (*setcover.Instance, []int) {
	t.Helper()
	r := rng.New(seed)
	ins, err := setcover.RandomInstance(n, m, 0.3, 3, weighted, r)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := setcover.RandomArrivals(ins, arrivals, 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	return ins, arr
}

// TestOneShardMatchesSequentialReduction is the core fidelity claim: the
// concurrent engine at one shard, submitting sequentially, must reproduce
// the sequential §4 reduction decision for decision — same initial chosen
// sets, same newly bought sets on every arrival, same final cover and cost.
func TestOneShardMatchesSequentialReduction(t *testing.T) {
	for rep := 0; rep < 6; rep++ {
		ins, arr := genInstance(t, uint64(50+rep), 14, 24, rep%2 == 1, 36)
		seed := uint64(900 + rep)

		ref, err := setcover.NewReductionRunner(ins, setcover.ReductionConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(ins, Config{Shards: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}

		refInit := append([]int(nil), ref.Chosen()...)
		if fmt.Sprint(eng.Chosen()) != fmt.Sprint(sortedCopy(refInit)) {
			t.Fatalf("rep %d: initial chosen %v, reference %v", rep, eng.Chosen(), refInit)
		}
		for i, j := range arr {
			want, err := ref.Arrive(j)
			if err != nil {
				t.Fatal(err)
			}
			d, err := eng.Submit(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			if d.Err != nil {
				t.Fatalf("rep %d arrival %d: %v", rep, i, d.Err)
			}
			if fmt.Sprint(d.NewSets) != fmt.Sprint(want) {
				t.Fatalf("rep %d arrival %d (element %d): engine bought %v, reference %v",
					rep, i, j, d.NewSets, want)
			}
		}
		eng.Close()
		if eng.Cost() != ref.Cost() {
			t.Fatalf("rep %d: engine cost %v, reference %v", rep, eng.Cost(), ref.Cost())
		}
		st := eng.Snapshot()
		if st.Preemptions != int64(ref.Preemptions()) {
			t.Fatalf("rep %d: engine preemptions %d, reference %d", rep, st.Preemptions, ref.Preemptions())
		}
		if fmt.Sprint(eng.Chosen()) != fmt.Sprint(sortedCopy(ref.Chosen())) {
			t.Fatalf("rep %d: final chosen mismatch", rep)
		}
	}
}

// TestSubmitBatchMatchesSubmit checks the pipelined batch path produces
// the identical decision stream and final state to a sequential Submit
// loop, at one shard and at four, for batch sizes from one arrival to the
// whole stream: each shard gets one run per batch, and the ledger claims
// newly bought sets in batch order, so every set is credited to the same
// decision.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	ins, arr := genInstance(t, 7, 24, 40, true, 240)
	for _, shards := range []int{1, 4} {
		one, err := New(ins, Config{Shards: shards, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var seq []Decision
		for _, j := range arr {
			d, err := one.Submit(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, d)
		}
		one.Close()

		for _, size := range []int{1, 97, len(arr)} {
			two, err := New(ins, Config{Shards: shards, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			var batch []Decision
			for lo := 0; lo < len(arr); lo += size {
				ds, err := two.SubmitBatch(context.Background(), arr[lo:min(lo+size, len(arr))])
				if err != nil {
					t.Fatal(err)
				}
				batch = append(batch, ds...)
			}
			two.Close()
			assertSameDecisions(t, fmt.Sprintf("shards=%d batch=%d", shards, size), batch, seq)
			if a, b := one.StateDigest(), two.StateDigest(); a != b {
				t.Fatalf("shards=%d batch=%d: state digest %#x, sequential %#x", shards, size, b, a)
			}
		}
	}
}

// assertSameDecisions fails unless got and want agree decision for
// decision: sequence number, element, arrival count, newly bought sets,
// their cost, and whether the arrival failed.
func assertSameDecisions(t *testing.T, what string, got, want []Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d decisions, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Element != w.Element || g.Arrival != w.Arrival ||
			!slices.Equal(g.NewSets, w.NewSets) || g.AddedCost != w.AddedCost ||
			(g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s: decision %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestCoverStreamMatchesSubmit feeds one arrival stream to a four-shard
// engine through interleaved Submit calls and SubmitBatch calls of varying
// sizes, and the same stream to a twin through Submit alone: Submit is a
// batch of one on the same dispatch path, so the decisions, the ledger's
// credits and the final state must be identical.
func TestCoverStreamMatchesSubmit(t *testing.T) {
	ins, arr := genInstance(t, 19, 24, 48, false, 200)
	ctx := context.Background()
	ref, err := New(ins, Config{Shards: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var want []Decision
	for _, j := range arr {
		d, err := ref.Submit(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}

	eng, err := New(ins, Config{Shards: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var got []Decision
	for lo, k := 0, 0; lo < len(arr); k++ {
		if k%4 == 3 {
			d, err := eng.Submit(ctx, arr[lo])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, d)
			lo++
			continue
		}
		hi := min(lo+k%13+1, len(arr))
		ds, err := eng.SubmitBatch(ctx, arr[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ds...)
		lo = hi
	}
	assertSameDecisions(t, "mixed", got, want)
	if a, b := ref.StateDigest(), eng.StateDigest(); a != b {
		t.Fatalf("state digest %#x, submit-only %#x", b, a)
	}
}

// TestMultiShardCover checks the lifted coverage guarantee on sharded
// engines: after any served arrival sequence, every element that arrived k
// times is covered by k distinct chosen sets, in both modes.
func TestMultiShardCover(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5} {
		for _, mode := range []Mode{ModeReduction, ModeBicriteria} {
			ins, arr := genInstance(t, uint64(11*shards), 20, 36, false, 60)
			eng, err := New(ins, Config{Shards: shards, Mode: mode, Seed: 17, Eps: 0.25})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, ins.N)
			for _, j := range arr {
				d, err := eng.Submit(context.Background(), j)
				if err != nil {
					t.Fatal(err)
				}
				if d.Err != nil {
					continue // saturated under this partition's budget
				}
				counts[j]++
			}
			eng.Close()
			chosen := eng.Chosen()
			assertCover(t, ins, counts, chosen, mode, 0.25)
			// Cost audit: the incremental ledger must match a from-scratch
			// recount over the chosen ids.
			recost := 0.0
			for _, id := range chosen {
				recost += ins.Cost(id)
			}
			if recost != eng.Cost() {
				t.Fatalf("shards=%d mode=%v: ledger cost %v, recount %v", shards, mode, eng.Cost(), recost)
			}
		}
	}
}

// assertCover verifies per-element coverage: full multicover for the
// reduction, (1−ε)k for bicriteria.
func assertCover(t *testing.T, ins *setcover.Instance, counts []int, chosen []int, mode Mode, eps float64) {
	t.Helper()
	pick := make([]bool, ins.M())
	for _, id := range chosen {
		if pick[id] {
			t.Fatalf("set %d chosen twice", id)
		}
		pick[id] = true
	}
	byElem := ins.SetsOf()
	for j, k := range counts {
		if k == 0 {
			continue
		}
		got := 0
		for _, id := range byElem[j] {
			if pick[id] {
				got++
			}
		}
		need := k
		if mode == ModeBicriteria {
			need = int((1 - eps) * float64(k))
		}
		if got < need {
			t.Fatalf("mode=%v: element %d covered %d < %d (arrived %d times)", mode, j, got, need, k)
		}
	}
}

// TestBicriteriaDeterministic checks ModeBicriteria produces the identical
// decision stream across runs (no randomness anywhere on the path).
func TestBicriteriaDeterministic(t *testing.T) {
	ins, arr := genInstance(t, 23, 18, 30, true, 50)
	run := func() []Decision {
		eng, err := New(ins, Config{Shards: 2, Mode: ModeBicriteria, Eps: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ds, err := eng.SubmitBatch(context.Background(), arr)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("bicriteria runs diverged")
	}
}

// TestConcurrentSubmit hammers a sharded engine from many goroutines and
// then audits the invariants: no lost arrivals, never-un-chosen sets, and
// full coverage of every successfully served arrival.
func TestConcurrentSubmit(t *testing.T) {
	ins, _ := genInstance(t, 31, 24, 40, false, 0)
	eng, err := New(ins, Config{Shards: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 50
	counts := make([]int64, ins.N)
	var mu sync.Mutex
	var served int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + w))
			for i := 0; i < perWorker; i++ {
				j := r.Intn(ins.N)
				d, err := eng.Submit(context.Background(), j)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if d.Err != nil {
					continue // saturated: legal refusal under contention
				}
				mu.Lock()
				counts[j]++
				served++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	eng.Close()
	st := eng.Snapshot()
	if st.Arrivals != served {
		t.Fatalf("engine served %d arrivals, clients saw %d", st.Arrivals, served)
	}
	intCounts := make([]int, ins.N)
	for j, c := range counts {
		intCounts[j] = int(c)
	}
	assertCover(t, ins, intCounts, eng.Chosen(), ModeReduction, 0)
	if st.ChosenSets != len(eng.Chosen()) {
		t.Fatalf("stats report %d chosen sets, ledger has %d", st.ChosenSets, len(eng.Chosen()))
	}
}

// TestLifecycle covers Close semantics and validation errors.
func TestLifecycle(t *testing.T) {
	ins, _ := genInstance(t, 41, 10, 16, false, 0)
	eng, err := New(ins, Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(context.Background(), -1); err == nil {
		t.Fatal("negative element accepted")
	}
	if _, err := eng.Submit(context.Background(), ins.N); err == nil {
		t.Fatal("out-of-range element accepted")
	}
	if _, err := eng.SubmitBatch(context.Background(), []int{0, ins.N}); err == nil {
		t.Fatal("batch with out-of-range element accepted")
	}
	if ds, err := eng.SubmitBatch(context.Background(), nil); err != nil || ds != nil {
		t.Fatalf("empty batch: %v, %v", ds, err)
	}
	d, err := eng.Submit(context.Background(), 0)
	if err != nil || d.Err != nil {
		t.Fatalf("submit: %v, %v", err, d.Err)
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Submit(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if _, err := eng.SubmitBatch(context.Background(), []int{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: %v, want ErrClosed", err)
	}
	st := eng.Snapshot() // exact post-close stats must not hang
	if st.Arrivals != 1 {
		t.Fatalf("post-close arrivals %d, want 1", st.Arrivals)
	}
}

// TestClosedEngineIsCollectable serves batches that end on the shard
// loops, closes the engine and drops it: one garbage collection later its
// shard state must be gone, though the batches went back to a
// package-level pool (see the admission engine's test of the same name).
func TestClosedEngineIsCollectable(t *testing.T) {
	ins, arr := genInstance(t, 43, 64, 96, false, 256)
	eng, err := New(ins, Config{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(arr); lo += 64 {
		if _, err := eng.SubmitBatch(context.Background(), arr[lo:lo+64]); err != nil {
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

// TestEpsValidation checks a mistyped bicriteria slack fails construction
// instead of silently running with the default.
func TestEpsValidation(t *testing.T) {
	ins, _ := genInstance(t, 3, 8, 12, false, 0)
	for _, eps := range []float64{1.5, -0.2, 1} {
		if _, err := New(ins, Config{Mode: ModeBicriteria, Eps: eps}); err == nil {
			t.Fatalf("Eps = %v accepted", eps)
		}
	}
	eng, err := New(ins, Config{Mode: ModeBicriteria}) // zero value = default 0.25
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
}

// TestSaturatedDecision checks the per-arrival error path: arrivals beyond
// an element's degree are refused with ErrElementSaturated and counted.
func TestSaturatedDecision(t *testing.T) {
	ins := &setcover.Instance{N: 2, Sets: [][]int{{0, 1}, {0}, {1}}}
	eng, err := New(ins, Config{Shards: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for k := 0; k < 2; k++ {
		d, err := eng.Submit(context.Background(), 0)
		if err != nil || d.Err != nil {
			t.Fatalf("arrival %d: %v, %v", k, err, d.Err)
		}
	}
	d, err := eng.Submit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(d.Err, setcover.ErrElementSaturated) {
		t.Fatalf("third arrival err = %v, want ErrElementSaturated", d.Err)
	}
	st := eng.Snapshot()
	if st.Errors != 1 || st.Arrivals != 2 {
		t.Fatalf("stats %+v, want 2 arrivals and 1 error", st)
	}
}

// sortedCopy returns a sorted copy of ids.
func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// TestCoverStreamCancellation races cancellation against many concurrent
// submitters (run under -race): goroutines submit arrivals in batches
// under contexts cancelled before they start or while they run. A batch
// that finds its context cancelled returns the context error before
// taking sequence numbers; one that started is served whole. After Drain
// the counters reconcile exactly with what the shards served, and the
// ledger with the sets it holds.
func TestCoverStreamCancellation(t *testing.T) {
	ins, arr := genInstance(t, 29, 40, 60, true, 400)
	eng, err := New(ins, Config{Shards: 2, Seed: 5})
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
				lo := (w*7 + round*31) % len(arr)
				_, err := eng.SubmitBatch(ctx, arr[lo:min(lo+16, len(arr))])
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
	assertReconciled(t, eng)
	eng.Close()
	assertReconciled(t, eng)
}

// TestCancelledBatchDecidesNothing pins the cancellation rule: ctx is
// checked once, before a batch takes its sequence numbers. A one-shard
// and a two-shard batch under an already-cancelled context fail with
// context.Canceled and decide nothing, so the next Submit gets seq 0 and
// is the only arrival counted.
func TestCancelledBatchDecidesNothing(t *testing.T) {
	ins, _ := genInstance(t, 31, 8, 12, false, 1)
	eng, err := New(ins, Config{Shards: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name     string
		elements []int
	}{
		{"one shard", []int{0, 1}},
		{"two shards", []int{0, 2}},
	} {
		if ds, err := eng.SubmitBatch(dead, tc.elements); !errors.Is(err, context.Canceled) || ds != nil {
			t.Errorf("%s batch: %d decisions, err %v; want none and context.Canceled", tc.name, len(ds), err)
		}
	}
	d, err := eng.Submit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Snapshot().Arrivals; d.Seq != 0 || n != 1 {
		t.Fatalf("next Submit got seq %d with %d arrivals counted, want seq 0 and 1", d.Seq, n)
	}
}

// assertReconciled checks, at a quiescent point, that the engine's arrival
// counter equals the arrivals its shards served, and that the ledger's
// count and cost match the sets it holds.
func assertReconciled(t *testing.T, eng *Engine) {
	t.Helper()
	st := eng.Snapshot()
	served := 0
	for _, snap := range eng.snapshots() {
		served += snap.arrivals
	}
	if st.Arrivals != int64(served) {
		t.Fatalf("engine counted %d arrivals, shards served %d", st.Arrivals, served)
	}
	chosen := eng.Chosen()
	cost := 0.0
	for _, id := range chosen {
		cost += eng.ins.Cost(id)
	}
	if st.ChosenSets != len(chosen) || st.Cost != cost {
		t.Fatalf("ledger reports %d sets costing %v, holds %d costing %v", st.ChosenSets, st.Cost, len(chosen), cost)
	}
}

// TestCoverStreamAfterClose races a stream of submissions against Close:
// every call either is served or fails with ErrClosed, and the statistics
// after Close count exactly the served calls.
func TestCoverStreamAfterClose(t *testing.T) {
	ins, arr := genInstance(t, 23, 16, 24, false, 120)
	eng, err := New(ins, Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i = (i + 4) % len(arr) {
				ds, err := eng.SubmitBatch(context.Background(), arr[i:i+1])
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				served.Add(int64(len(ds)))
			}
		}()
	}
	for served.Load() < 50 {
		runtime.Gosched()
	}
	eng.Close()
	wg.Wait()
	if st := eng.Stats(); st.Requests != served.Load() {
		t.Fatalf("closed engine counted %d requests, callers were served %d", st.Requests, served.Load())
	}
	assertReconciled(t, eng)
}
