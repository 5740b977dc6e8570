package coverengine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"admission/internal/rng"
)

// TestLockOrderStress races batches that span shards, single arrivals,
// snapshot and digest reads, and batches under contexts cancelled before
// or during the call on eight goroutines. A shard lock held across a send
// or a wait deadlocks here; CI runs it with -race -count=10 under a
// timeout. After Drain the arrival counter and the ledger reconcile with
// the shards.
func TestLockOrderStress(t *testing.T) {
	ins, arr := genInstance(t, 31, 60, 90, true, 2000)
	eng, err := New(ins, Config{Shards: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bg := context.Background()

	const workers, opsPer = 8, 250
	var cancelled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(200 + w))
			for op := 0; op < opsPer && !t.Failed(); op++ {
				lo := r.Intn(len(arr))
				hi := min(lo+1+r.Intn(24), len(arr))
				switch r.Intn(5) {
				case 0, 1:
					if _, err := eng.SubmitBatch(bg, arr[lo:hi]); err != nil {
						t.Errorf("worker %d: SubmitBatch: %v", w, err)
					}
				case 2:
					if _, err := eng.Submit(bg, arr[lo]); err != nil {
						t.Errorf("worker %d: Submit: %v", w, err)
					}
				case 3:
					ctx, cancel := context.WithCancel(bg)
					if r.Bernoulli(0.5) {
						cancel()
					} else {
						time.AfterFunc(time.Duration(r.Intn(50))*time.Microsecond, cancel)
					}
					_, err := eng.SubmitBatch(ctx, arr[lo:hi])
					cancel()
					if errors.Is(err, context.Canceled) {
						cancelled.Add(1)
					} else if err != nil {
						t.Errorf("worker %d: cancelled SubmitBatch: %v", w, err)
					}
				case 4:
					eng.Snapshot()
					eng.StateDigest()
				}
			}
		}()
	}
	wg.Wait()
	if err := eng.Drain(bg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cancelled batches", cancelled.Load())
	assertReconciled(t, eng)
}
