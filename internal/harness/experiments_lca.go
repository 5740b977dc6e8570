package harness

import (
	"context"
	"fmt"
	"net"
	"net/http"
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
// by the lca engine at exact fidelity, and served through /v1/query with
// one connection over both codecs, each served leg on a fresh engine so
// the served path extends the shared frontier rather than looking it up.
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
		for t, a := range answers {
			if a.Err != nil {
				return fmt.Errorf("E18: local rep %d: query %d failed: %v", rep, t, a.Err)
			}
			if a.Pos != direct[t].Pos || a.Accepted != direct[t].Accepted ||
				fmt.Sprint(a.Preempted) != fmt.Sprint(direct[t].Preempted) {
				return fmt.Errorf("E18: local rep %d: position %d diverges: query %+v, streaming %+v",
					rep, t, a, direct[t])
			}
		}

		// Identity gate 2: the served conns=1 streams over both codecs, each
		// on a fresh engine.
		for _, wireCodec := range []bool{false, true} {
			codec := "json"
			if wireCodec {
				codec = "wire"
			}
			got, err := queryStreamConns1(newEngine, qs, wireCodec)
			if err != nil {
				return fmt.Errorf("E18: %s conns=1 rep %d: %w", codec, rep, err)
			}
			if len(got) != len(direct) {
				return fmt.Errorf("E18: %s conns=1 rep %d: %d decisions for %d queries", codec, rep, len(got), len(direct))
			}
			for t := range got {
				if got[t].Error != "" {
					return fmt.Errorf("E18: %s conns=1 rep %d: query %d refused: %s", codec, rep, t, got[t].Error)
				}
				if got[t].Pos != direct[t].Pos || got[t].Accepted != direct[t].Accepted ||
					fmt.Sprint(got[t].Preempted) != fmt.Sprint(direct[t].Preempted) {
					return fmt.Errorf("E18: %s conns=1 rep %d: decision %d diverges: served %+v, streaming %+v",
						codec, rep, t, got[t], direct[t])
				}
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

// queryStreamConns1 serves the query sequence over a one-connection
// loopback in 64-item batches using the JSON or binary client and returns
// the full decision-line stream. It serves a fresh engine from newEngine,
// so the served path extends the frontier from position 0 itself.
func queryStreamConns1(newEngine func(workers int) (*lca.Engine, error), qs []lca.Query, wireCodec bool) ([]server.QueryDecisionJSON, error) {
	qeng, err := newEngine(4)
	if err != nil {
		return nil, err
	}
	defer qeng.Close()
	srv, err := server.New(server.Config{}, server.Query(qeng))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() { _ = httpSrv.Close() }()

	base := "http://" + ln.Addr().String()
	var client *server.Client[lca.Query, server.QueryDecisionJSON]
	if wireCodec {
		client = server.NewQueryWireClient(base, 1)
	} else {
		client = server.NewQueryClient(base, 1)
	}
	defer client.CloseIdle()

	const batch = 64
	got := make([]server.QueryDecisionJSON, 0, len(qs))
	for lo := 0; lo < len(qs); lo += batch {
		hi := lo + batch
		if hi > len(qs) {
			hi = len(qs)
		}
		ds, err := client.Submit(context.Background(), qs[lo:hi])
		if err != nil {
			return nil, err
		}
		got = append(got, ds...)
	}
	if err := drainServer(srv); err != nil {
		return nil, err
	}
	return got, nil
}
