package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"admission/internal/core"
	"admission/internal/problem"
	"admission/internal/rng"
)

// TestLockOrderStress races every kind of engine operation on eight
// goroutines: batches with cross-shard requests, reserve→commit and
// reserve→release pairs, grows and shrinks of random edges, stats and
// digest reads, compactions of every shard, and batches under contexts
// cancelled before or during the call. A shard lock taken out of ascending
// order, or held across a send or a wait, deadlocks here; CI runs it with
// -race -count=10 under a timeout. After Drain the counters reconcile,
// every edge's load fits its capacity, no reservation is left unsettled,
// and each shard holds request entries in proportion to its live
// requests, not its history.
func TestLockOrderStress(t *testing.T) {
	// Every request and reservation names exactly three edges, so the
	// reservations the shards hold can be counted from the counters.
	const edgesPer = 3
	caps := make([]int, 24)
	for e := range caps {
		caps[e] = 12
	}
	pool := rng.New(53)
	reqs := make([]problem.Request, 512)
	for i := range reqs {
		reqs[i] = problem.Request{Edges: pool.Perm(len(caps))[:edgesPer], Cost: float64(1 + pool.Intn(100))}
	}
	acfg := core.DefaultConfig()
	acfg.Seed = 13
	eng, err := New(caps, Config{Shards: 4, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bg := context.Background()

	const workers, opsPer = 8, 250
	var settles, cancelled, compactions atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			batch := func() (int, int) {
				lo := r.Intn(len(reqs))
				return lo, min(lo+1+r.Intn(32), len(reqs))
			}
			for op := 0; op < opsPer && !t.Failed(); op++ {
				switch r.Intn(7) {
				case 0, 1:
					lo, hi := batch()
					if _, err := eng.SubmitBatch(bg, reqs[lo:hi]); err != nil {
						t.Errorf("worker %d: SubmitBatch: %v", w, err)
					}
				case 2:
					ctx, cancel := context.WithCancel(bg)
					if r.Bernoulli(0.5) {
						cancel()
					} else {
						time.AfterFunc(time.Duration(r.Intn(50))*time.Microsecond, cancel)
					}
					lo, hi := batch()
					_, err := eng.SubmitBatch(ctx, reqs[lo:hi])
					cancel()
					if errors.Is(err, context.Canceled) {
						cancelled.Add(1)
					} else if err != nil {
						t.Errorf("worker %d: cancelled SubmitBatch: %v", w, err)
					}
				case 3:
					edges := reqs[r.Intn(len(reqs))].Edges
					d, err := eng.SubmitReserve(bg, edges)
					if err != nil {
						t.Errorf("worker %d: SubmitReserve: %v", w, err)
						continue
					}
					if !d.Accepted {
						continue
					}
					settle := eng.SubmitRelease
					if r.Bernoulli(0.5) {
						settle = eng.SubmitCommit
					}
					if _, err := settle(bg, edges); err != nil {
						t.Errorf("worker %d: settle: %v", w, err)
					}
					settles.Add(1)
				case 4:
					resize := eng.ShrinkCapacity
					if r.Bernoulli(0.5) {
						resize = eng.GrowCapacity
					}
					if _, err := resize(bg, r.Intn(eng.NumEdges()), 1); err != nil {
						t.Errorf("worker %d: resize: %v", w, err)
					}
				case 5:
					eng.ShardStats()
					eng.StateDigest()
				case 6:
					eng.compact()
					compactions.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := eng.Drain(bg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cancelled batches, %d settled reservations, %d compactions", cancelled.Load(), settles.Load(), compactions.Load())

	// Every counted request was decided by a shard, by the cross-shard
	// path, or is a settle.
	st := eng.Snapshot()
	decided := 0
	for _, sh := range eng.ShardStats() {
		decided += sh.Requests
	}
	if int64(decided)+st.CrossShard+settles.Load() != st.Requests {
		t.Fatalf("engine counted %d requests; shards decided %d, %d cross-shard, %d settles",
			st.Requests, decided, st.CrossShard, settles.Load())
	}
	now := eng.Capacities()
	for e, load := range st.Loads {
		if load > now[e] {
			t.Fatalf("edge %d: load %d over capacity %d", e, load, now[e])
		}
	}
	// The shards hold a reservation per edge of each accepted cross-shard
	// request and none for a settled one: a refusal or a cancellation
	// that leaked a granted reservation shows as a surplus.
	held := 0
	for _, s := range eng.shards {
		eng.rt.Lock(s.idx)
		for _, n := range s.reserved {
			held += n
		}
		eng.rt.Unlock(s.idx)
	}
	if kept := st.CrossShardAccepted - settles.Load(); int64(held) != edgesPer*kept {
		t.Fatalf("shards hold %d reservations, want %d for %d accepted cross-shard requests", held, edgesPer*kept, kept)
	}

	// Retained entries: the core holds a slot per live request plus at
	// most as many retired ones as live ones and edges at its last Offer,
	// and the ID map an entry per accepted request plus at most as many
	// forgotten ones as accepted at its last insertion; the slack covers
	// the six edges and the retirements since. A compaction leaves exactly
	// the live ones.
	for _, s := range eng.shards {
		eng.rt.Lock(s.idx)
		slots, live := s.alg.Footprint()
		entries, kept := len(s.accepted.ids), len(s.accepted.ids)-s.accepted.gone
		t.Logf("shard %d: %d requests decided, %d slots (%d live), %d ID entries (%d kept)", s.idx, s.requests, slots, live, entries, kept)
		if slots > 2*live+retireSlack || entries > 2*kept+retireSlack {
			t.Errorf("shard %d holds %d slots for %d live requests and %d ID entries for %d accepted ones", s.idx, slots, live, entries, kept)
		}
		s.alg.Compact()
		s.accepted.compact()
		if slots, live := s.alg.Footprint(); slots != live || len(s.accepted.ids) > live {
			t.Errorf("shard %d: after compaction, %d slots for %d live requests and %d ID entries", s.idx, slots, live, len(s.accepted.ids))
		}
		eng.rt.Unlock(s.idx)
	}
}

// retireSlack bounds the requests one shard retires (or preempts) between
// its last Offer and a Drain in TestLockOrderStress.
const retireSlack = 64
