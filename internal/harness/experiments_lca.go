package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/lca"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/stats"
	"admission/internal/workload"
)

// --- E18: local-computation query tier — streaming consistency -----------
//
// E18 validates the query tier (internal/lca, DESIGN.md §13): the same
// seeded arrival order is decided four ways — streamed sequentially
// through a 1-shard engine (the reference), answered position by position
// by the lca engine, and served through /v1/query with one connection over
// both codecs, each served leg on a fresh engine so the served path
// extends the shared frontier rather than looking it up.
// All four decision streams must be line-identical (position/ID, accepted,
// preempted) at every position: the shared decided prefix must not be able
// to disagree with the stateful streaming run it reconstructs. The worker
// sweep then has fresh engines answer every position in a seeded order
// and counts the arrivals they simulate. Acceptance (see EXPERIMENTS.md
// §E18): zero line divergences in every repetition, and every sweep engine
// simulates exactly n arrivals for n positions, where independent prefix
// replays simulated n(n+1)/2. Throughput is reported for information.

func init() {
	registry = append(registry,
		Experiment{"E18", "Local-computation query tier: consistency with the streaming engine and shared-frontier cost (§3 over DESIGN.md §13)", runE18},
	)
}

func runE18(cfg Config) ([]*Table, error) {
	n := cfg.scaledInt(192, 48)
	workerSweep := []int{1, 2, 4, 8}

	type e18Point struct {
		ok        bool
		thrus     []float64 // queries/s per workerSweep entry
		simulated []int64   // arrivals simulated per workerSweep entry
	}
	points := make([]e18Point, cfg.reps())
	var mu sync.Mutex
	err := parallelEach(cfg.reps(), cfg.workers(), func(rep int) error {
		alg := core.DefaultConfig()
		alg.Seed = cfg.Seed ^ (uint64(rep+1) * 0xE18E18)
		src := lca.Source{
			Workload: "random",
			Model:    workload.CostUniform,
			Capacity: 4,
			N:        n,
			Seed:     cfg.Seed ^ (uint64(rep+1) * 7477),
		}
		newEngine := func(workers int) (*lca.Engine, error) {
			return lca.New(lca.Config{Source: src, Algorithm: alg, Workers: workers})
		}
		qeng, err := newEngine(4)
		if err != nil {
			return err
		}
		defer qeng.Close()
		ins := qeng.Instance()

		// Streaming reference: the same arrival order through a 1-shard
		// engine under the same algorithm seed — the decision stream every
		// exact query answer must reproduce.
		seng, err := engine.New(ins.Capacities, engine.Config{Shards: 1, Algorithm: alg})
		if err != nil {
			return err
		}
		direct := make([]server.QueryDecisionJSON, 0, len(ins.Requests))
		for _, req := range ins.Requests {
			d, err := seng.Submit(context.Background(), req)
			if err != nil {
				seng.Close()
				return fmt.Errorf("E18: streaming reference rep %d: %w", rep, err)
			}
			direct = append(direct, server.QueryDecisionJSON{
				Pos: d.ID, Accepted: d.Accepted, Preempted: d.Preempted,
			})
		}
		seng.Close()

		qs := make([]lca.Query, len(ins.Requests))
		for i := range qs {
			qs[i] = lca.Query{Pos: i}
		}

		// Identity gate 1: local exact answers at every position.
		answers, err := qeng.SubmitBatch(context.Background(), qs)
		if err != nil {
			return err
		}
		local := make([]server.QueryDecisionJSON, len(answers))
		for t, a := range answers {
			local[t] = server.QueryDecisionJSON{Pos: a.Pos, Accepted: a.Accepted, Preempted: a.Preempted}
			if a.Err != nil {
				local[t].Error = a.Err.Error()
			}
		}
		if err := sameLines(local, direct, 0, sameQuery); err != nil {
			return fmt.Errorf("E18: local rep %d: %w", rep, err)
		}

		// Identity gate 2: the served conns=1 streams over both codecs, each
		// on a fresh engine, so the served path extends the frontier from
		// position 0 itself.
		for _, wire := range []bool{false, true} {
			codec, newClient := "json", server.NewQueryClient
			if wire {
				codec, newClient = "wire", server.NewQueryWireClient
			}
			qe, err := newEngine(4)
			if err != nil {
				return err
			}
			_, _, err = serveStream(server.Query(qe), newClient, qs, direct, sameQuery)
			qe.Close()
			if err != nil {
				return fmt.Errorf("E18: %s conns=1 rep %d: %w", codec, rep, err)
			}
		}

		// Worker sweep: fresh engines with growing worker bounds answer every
		// position in a seeded order; throughput is batch wall clock.
		shuffled := make([]lca.Query, len(qs))
		for i, p := range rng.New(src.Seed).Perm(len(qs)) {
			shuffled[i] = lca.Query{Pos: p}
		}
		thrus := make([]float64, len(workerSweep))
		simulated := make([]int64, len(workerSweep))
		for wi, workers := range workerSweep {
			weng, err := newEngine(workers)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := weng.SubmitBatch(context.Background(), shuffled); err != nil {
				weng.Close()
				return err
			}
			thrus[wi] = float64(len(shuffled)) / time.Since(start).Seconds()
			simulated[wi] = weng.Simulated()
			weng.Close()
		}
		mu.Lock()
		points[rep] = e18Point{ok: true, thrus: thrus, simulated: simulated}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E18",
		Title:   "Local-computation query tier: streaming consistency and shared-frontier cost (DESIGN.md §13)",
		Columns: []string{"workers", "throughput (queries/s)", "simulated arrivals", "independent replays"},
	}
	verdict := "PASS"
	for wi, workers := range workerSweep {
		thru := &stats.Summary{}
		maxSim := int64(0)
		for rep := 0; rep < cfg.reps(); rep++ {
			if !points[rep].ok {
				continue
			}
			thru.Add(points[rep].thrus[wi])
			sim := points[rep].simulated[wi]
			maxSim = max(maxSim, sim)
			if sim != int64(n) {
				verdict = "FAIL"
			}
		}
		t.AddRow(fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.0f", thru.Mean()),
			fmt.Sprintf("%d", maxSim),
			fmt.Sprintf("%d", n*(n+1)/2))
	}
	t.AddNote("identity: exact answers at all %d positions line-identical to the 1-shard streaming engine, locally and served over json+wire conns=1 on fresh engines, in every repetition", n)
	t.AddNote("acceptance: a fresh engine answering all %d positions in seeded order simulates exactly %d arrivals (the shared frontier), where independent prefix replays simulated %d: %s", n, n, n*(n+1)/2, verdict)
	t.AddNote("throughput is informational: exact queries serialize on the frontier, so the worker bound does not scale them (host GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
	return []*Table{t}, nil
}
