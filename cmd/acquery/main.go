// Command acquery answers local-computation decision queries (DESIGN.md
// §13): "what would the decision at arrival position r be?" over a seeded
// arrival order, without streaming the sequence through a stateful engine.
//
// By default it answers locally — it builds the query engine in-process
// from the same flags acserve's -query mode takes and decides the prefix
// up to the last queried position once:
//
//	acquery -workload random -seed 7 -n 4096 -pos 17
//	acquery -workload random -seed 7 -n 4096 -from 0 -to 100
//
// With -url it submits the same queries to a running acserve instance
// instead (started with -query and a matching arrival-order spec), over
// JSON or, with -wire, the binary wire protocol:
//
//	acquery -url http://127.0.0.1:8080 -pos 17
//	acquery -url http://127.0.0.1:8080 -from 0 -to 100 -wire
//
// Either way it prints one NDJSON decision line per query — the same line
// format /v1/query streams — so local and served answers diff cleanly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"admission/internal/core"
	"admission/internal/lca"
	"admission/internal/server"
	"admission/internal/workload"
)

func main() {
	var (
		url        = flag.String("url", "", "acserve base URL; empty answers locally in-process")
		wl         = flag.String("workload", "random", "named workload supplying the seeded arrival order")
		costs      = flag.String("costs", "uniform", "arrival-order cost model: unit | uniform | pareto")
		capacity   = flag.Int("cap", 8, "per-edge capacity of the arrival order")
		n          = flag.Int("n", 4096, "arrival-order length (queryable positions)")
		seed       = flag.Uint64("seed", 1, "arrival-order seed")
		algSeed    = flag.Uint64("alg-seed", 1, "algorithm seed (must match the streaming engine's for line-identity)")
		unweighted = flag.Bool("unweighted", false, "use the paper's unweighted constants (requires -costs unit)")
		pos        = flag.Int("pos", -1, "single position to query (overrides -from/-to)")
		from       = flag.Int("from", 0, "first position of a range query")
		to         = flag.Int("to", 0, "one past the last position of a range query")
		batch      = flag.Int("batch", 256, "queries per HTTP submission (-url mode)")
		wireOn     = flag.Bool("wire", false, "submit over the binary wire protocol (-url mode)")
	)
	flag.Parse()

	var positions []int
	switch {
	case *pos >= 0:
		positions = []int{*pos}
	case *to > *from:
		for p := *from; p < *to; p++ {
			positions = append(positions, p)
		}
	default:
		fail(fmt.Errorf("nothing to query: pass -pos or a -from/-to range"))
	}
	qs := make([]lca.Query, len(positions))
	for i, p := range positions {
		qs[i] = lca.Query{Pos: p}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *url != "" {
		if err := queryServer(ctx, *url, qs, *batch, *wireOn); err != nil {
			fail(err)
		}
		return
	}

	model, err := workload.ParseCostModel(*costs)
	if err != nil {
		fail(err)
	}
	eng, err := lca.New(lca.Config{
		Source:    lca.Source{Workload: *wl, Model: model, Capacity: *capacity, N: *n, Seed: *seed},
		Algorithm: core.SeededConfig(*unweighted, *algSeed),
	})
	if err != nil {
		fail(err)
	}
	defer eng.Close()
	answers, err := eng.SubmitBatch(ctx, qs)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, a := range answers {
		if err := enc.Encode(server.QueryLine(a)); err != nil {
			fail(err)
		}
	}
}

// queryServer submits the queries to a running acserve in batches and
// relays its decision lines.
func queryServer(ctx context.Context, url string, qs []lca.Query, batch int, wire bool) error {
	var client *server.Client[lca.Query, server.QueryDecisionJSON]
	if wire {
		client = server.NewQueryWireClient(url, 1)
	} else {
		client = server.NewQueryClient(url, 1)
	}
	defer client.CloseIdle()
	if batch <= 0 {
		batch = 256
	}
	enc := json.NewEncoder(os.Stdout)
	for lo := 0; lo < len(qs); lo += batch {
		hi := lo + batch
		if hi > len(qs) {
			hi = len(qs)
		}
		lines, err := client.Submit(ctx, qs[lo:hi])
		if err != nil {
			return err
		}
		for _, line := range lines {
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acquery:", err)
	os.Exit(1)
}
