// Command acserve runs the network-facing serving layer (DESIGN.md §7 and
// §10): an HTTP JSON front end over the workload registry, with batched
// submission, streaming decision responses, Prometheus metrics, and
// graceful drain on SIGINT/SIGTERM. Every workload is served through the
// same generic handler under /v1/<workload>.
//
// The admission workload's capacity vector comes from a built-in
// workload's topology (the same names acsim and acgen use) or from a flat
// -edges/-cap pair:
//
//	acserve -addr :8080 -workload grid -cap 8 -shards 4
//	acserve -addr :8080 -edges 64 -cap 16 -shards 8 -batch 512
//
// The startup lines print each engine's configuration fingerprint, which
// acrouter, acreplay -wal and a restart on the same -wal-dir must match,
// and the address actually bound: with port 0 (-addr 127.0.0.1:0) the
// kernel picks a free one.
//
// With -cover the server additionally serves online set cover with
// repetitions (§§4–5, DESIGN.md §9) over a named set-cover workload's
// instance — the same registry acload -cover uses, so starting both with
// the same -cover-workload/-cover-seed makes them agree on the set system:
//
//	acserve -addr :8080 -cover -cover-workload cover-random -cover-shards 4
//	acserve -addr :8080 -cover -cover-mode bicriteria -cover-eps 0.25
//
// With -query the server additionally serves the local-computation query
// tier (internal/lca, DESIGN.md §13): stateless "what would the decision
// at position r be?" queries over a seeded arrival order that server and
// client both derive from the -query-workload/-query-seed pair — the
// sequence itself is never transmitted. Queries share one decided prefix,
// extended on demand:
//
//	acserve -addr :8080 -query -query-workload random -query-seed 7 -query-n 4096
//
// Endpoints:
//
//	POST /v1/admission       one request {"edges":[0,1],"cost":2.5} or an
//	                         array; one NDJSON decision line per request
//	GET  /v1/admission/stats engine + pipeline statistics (JSON)
//	POST /v1/cover           element id(s), e.g. 3 or [0,4,4]; one NDJSON
//	                         "sets chosen" decision line per arrival
//	GET  /v1/cover/stats     cover engine statistics (JSON)
//	POST /v1/query           one query {"pos":17} or an array; one NDJSON
//	                         reconstructed-decision line per query
//	GET  /v1/query/stats     query engine statistics (JSON)
//	GET  /metrics            Prometheus text format
//	GET  /healthz            liveness; 503 while draining
//
// With -admin-token the server additionally mounts the live-operations
// control plane (DESIGN.md §15) under /admin/v1/* — live capacity
// grow/shrink with drain semantics, intake pause/resume, WAL snapshot
// triggering, and a structured occupancy view — every route requiring
// "Authorization: Bearer <token>". Configuring the token also gates
// /metrics and the per-workload stats routes (they leak occupancy);
// /healthz and submissions stay open:
//
//	acserve -addr :8080 -edges 64 -cap 16 -admin-token s3cret
//
// The same /v1/<workload> routes also speak the length-prefixed binary
// wire protocol (DESIGN.md §11): a submission with Content-Type
// application/x-acwire is decoded from framed binary and answered with a
// framed binary decision stream, decision-identical to the JSON path.
// -wire=false turns the binary codec off (such submissions get 415).
//
// With -cluster-size and -cluster-index the server runs as one cluster
// backend (DESIGN.md §14): it derives its slice of the global edge set
// from the consistent-hash ring — the same derivation acrouter makes, so
// nothing about the partition is transmitted — and serves the cluster
// operation protocol (offers, two-phase reserves and settles) under
// /v1/cluster instead of the admission workload. Combine with -wal-dir
// for a durable backend whose applied watermark survives a crash
// (experiment E19's fault leg):
//
//	acserve -addr :8081 -edges 64 -cap 8 -cluster-size 3 -cluster-index 0 -wal-dir /var/lib/acserve0
//
// Cluster mode serves only the cluster workload; -cover and -query are
// rejected. Otherwise it runs the same path as the admission workload: the
// backend is one more node that -wal-dir recovers, mounts and finishes.
//
// With -wal-dir the server is durable (DESIGN.md §12): every decision is
// appended to a per-workload write-ahead log under the directory
// (<dir>/admission or, in cluster mode, <dir>/cluster, and <dir>/cover
// with -cover) and group-commit-fsynced before its response line is
// released, and the log is snapshotted every -snapshot-every decisions.
// On startup any prior state in the directory is recovered — replayed
// through the freshly built engines and verified decision-for-decision —
// before the listener opens, so a restart continues the decision stream
// exactly where the crash cut it off (experiment E17). The engine flags
// must match the recorded run; wal.Open rejects a mismatched configuration
// fingerprint.
//
//	acserve -addr :8080 -edges 64 -cap 16 -shards 8 -wal-dir /var/lib/acserve
//
// On SIGINT/SIGTERM the server stops accepting connections, completes
// in-flight submissions (HTTP drain, then pipeline drain), closes the
// decision logs if durable, closes the engines, and prints final
// statistics to stderr. A log gets a shutdown snapshot only after a clean
// drain: a drain that timed out may leave a batch decided but not logged,
// and a snapshot stamped then would make the next start refuse recovery.
// acserve then exits 1 instead of 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"admission/internal/cluster"
	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/lca"
	"admission/internal/server"
	"admission/internal/wal"
	"admission/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		wl         = flag.String("workload", "", "built-in workload supplying the capacity vector (overrides -edges)")
		edges      = flag.Int("edges", 32, "number of edges for a flat network")
		capacity   = flag.Int("cap", 8, "per-edge capacity")
		shards     = flag.Int("shards", 1, "engine shard count")
		seed       = flag.Uint64("seed", 1, "algorithm seed")
		unweighted = flag.Bool("unweighted", false, "use the paper's unweighted constants (requires cost-1 requests)")
		batch      = flag.Int("batch", 256, "max items per engine batch")
		wireOK     = flag.Bool("wire", true, "accept binary wire-protocol submissions (Content-Type application/x-acwire); -wire=false answers them 415 and serves JSON only")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		adminToken = flag.String("admin-token", "", "bearer token mounting the /admin/v1/* control plane and gating /metrics + stats (empty = admin plane disabled, observability open)")
		walDir     = flag.String("wal-dir", "", "directory for per-workload decision WALs; enables durability and crash recovery (empty = in-memory only)")
		snapEvery  = flag.Int64("snapshot-every", 100000, "logged decisions between automatic WAL snapshots (0 = only the shutdown snapshot)")

		query      = flag.Bool("query", false, "also serve local-computation decision queries (/v1/query)")
		queryWl    = flag.String("query-workload", "random", "named workload supplying the query tier's seeded arrival order")
		queryCosts = flag.String("query-costs", "uniform", "query arrival-order cost model: unit | uniform | pareto")
		queryCap   = flag.Int("query-cap", 8, "per-edge capacity of the query arrival order")
		queryN     = flag.Int("query-n", 4096, "query arrival-order length (queryable positions)")
		querySeed  = flag.Uint64("query-seed", 1, "query arrival-order seed (must match the client's)")

		cover     = flag.Bool("cover", false, "also serve online set cover (/v1/cover)")
		coverWl   = flag.String("cover-workload", "cover-random", "named set-cover workload supplying the set system")
		coverSeed = flag.Uint64("cover-seed", 1, "set-cover workload + algorithm seed")
		coverSh   = flag.Int("cover-shards", 1, "cover engine element-partition shard count")
		coverMode = flag.String("cover-mode", "reduction", "cover algorithm: reduction | bicriteria")
		coverEps  = flag.Float64("cover-eps", 0.25, "bicriteria slack ε in (0,1)")

		clusterSize  = flag.Int("cluster-size", 0, "run as one backend of an acrouter cluster of this size (0 = standalone)")
		clusterIndex = flag.Int("cluster-index", 0, "this backend's ring index in [0, cluster-size)")
		clusterVn    = flag.Int("cluster-vnodes", 0, "virtual nodes per backend on the hash ring (0 = default; must match the router)")
	)
	flag.Parse()

	caps, err := workload.Capacities(*wl, *edges, *capacity, *seed)
	if err != nil {
		fail(err)
	}
	acfg := core.SeededConfig(*unweighted, *seed)
	ecfg := engine.Config{Shards: *shards, Algorithm: acfg}

	// The admission engine (in cluster mode this index's backend) and the
	// cover engine: nodes that the path below opens, mounts and finishes.
	var (
		nodes []*server.Node
		eng   *engine.Engine
		be    *cluster.Backend
		cov   *coverengine.Engine
	)
	if *clusterSize > 0 {
		if *cover || *query {
			fail(fmt.Errorf("cluster mode serves only the cluster workload; drop -cover/-query"))
		}
		if *clusterIndex < 0 || *clusterIndex >= *clusterSize {
			fail(fmt.Errorf("-cluster-index %d outside [0, %d)", *clusterIndex, *clusterSize))
		}
		ring, err := cluster.NewRing(len(caps), *clusterSize, *clusterVn)
		if err != nil {
			fail(err)
		}
		bcaps, err := ring.Caps(caps, *clusterIndex)
		if err != nil {
			fail(err)
		}
		if be, err = cluster.NewBackend(bcaps, cluster.BackendConfig{Engine: ecfg}); err != nil {
			fail(err)
		}
		nodes = append(nodes, server.ClusterNode(be))
		fmt.Fprintf(os.Stderr, "acserve: cluster backend %d/%d: %d of %d edges, %d shards, fingerprint %s\n",
			*clusterIndex, *clusterSize, len(bcaps), len(caps), be.Engine().Shards(), be.Fingerprint())
	} else {
		if eng, err = engine.New(caps, ecfg); err != nil {
			fail(err)
		}
		nodes = append(nodes, server.AdmissionNode(eng))
		fmt.Fprintf(os.Stderr, "acserve: admission: m=%d edges (max capacity %d), %d shards, fingerprint %s\n",
			len(caps), slices.Max(caps), eng.Shards(), eng.Fingerprint())
	}
	if *cover {
		mode, err := coverengine.ParseMode(*coverMode)
		if err != nil {
			fail(err)
		}
		w, err := workload.BuildNamedCover(*coverWl, 0, *coverSeed)
		if err != nil {
			fail(err)
		}
		cov, err = coverengine.New(w.Instance, coverengine.Config{Shards: *coverSh, Seed: *coverSeed, Mode: mode, Eps: *coverEps})
		if err != nil {
			fail(err)
		}
		nodes = append(nodes, server.CoverNode(cov))
		fmt.Fprintf(os.Stderr, "acserve: cover: %s (%s), n=%d elements, m=%d sets, %d shards, fingerprint %s\n",
			*coverWl, cov.Mode(), cov.NumElements(), cov.NumSets(), cov.Shards(), cov.Fingerprint())
	}

	// With -wal-dir every node recovers its log before the listener opens.
	logs := make([]*wal.Log, len(nodes))
	var regs []server.Registration
	for i, n := range nodes {
		var info server.RecoveryInfo
		if *walDir != "" {
			if logs[i], info, err = n.Open(filepath.Join(*walDir, n.Name), false); err != nil {
				fail(fmt.Errorf("%s wal: %w", n.Name, err))
			}
			fmt.Fprintf(os.Stderr,
				"acserve: %s wal: recovered %d decisions (%d snapshot + %d tail) in %v, next seq %d",
				n.Name, info.SnapshotSeq+info.TailRecords, info.SnapshotSeq, info.TailRecords,
				info.Duration.Round(time.Millisecond), logs[i].NextSeq())
			if info.TornBytes > 0 {
				fmt.Fprintf(os.Stderr, " (truncated a %d-byte torn final record)", info.TornBytes)
			}
			fmt.Fprintln(os.Stderr)
		}
		regs = append(regs, n.Mount(logs[i], server.DurableOptions{SnapshotEvery: *snapEvery, Replay: info}))
	}
	var qeng *lca.Engine
	if *query {
		model, err := workload.ParseCostModel(*queryCosts)
		if err != nil {
			fail(err)
		}
		qeng, err = lca.New(lca.Config{
			Source: lca.Source{
				Workload: *queryWl,
				Model:    model,
				Capacity: *queryCap,
				N:        *queryN,
				Seed:     *querySeed,
			},
			Algorithm: acfg,
		})
		if err != nil {
			fail(err)
		}
		regs = append(regs, server.Query(qeng))
		src := qeng.Source()
		fmt.Fprintf(os.Stderr, "acserve: query: %s/%s seed %d, %d positions\n",
			src.Workload, src.Model, src.Seed, qeng.Positions())
	}
	srv, err := server.New(server.Config{
		BatchSize:  *batch,
		JSONOnly:   !*wireOK,
		AdminToken: *adminToken,
	}, regs...)
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "acserve: serving workloads [%s] on %s, batch %d\n",
		strings.Join(srv.Workloads(), " "), ln.Addr(), *batch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	announce := context.AfterFunc(ctx, func() { fmt.Fprintln(os.Stderr, "acserve: draining") })
	runErr := srv.Run(ctx, ln, *drainT)
	announce()
	// After a clean drain the engines are quiescent: Finish stamps a final
	// snapshot into each log so the next start replays nothing.
	err = runErr
	for i, n := range nodes {
		err = errors.Join(err, n.Finish(logs[i], runErr))
		n.Close()
	}
	if eng != nil {
		st := eng.Snapshot()
		fmt.Fprintf(os.Stderr,
			"acserve: final stats: %d requests, %d accepted, %d preemptions, rejected cost %g\n",
			st.Requests, st.Accepted, st.Preemptions, st.RejectedCost)
	}
	if be != nil {
		st := be.Stats()
		fmt.Fprintf(os.Stderr,
			"acserve: final cluster stats: %d operations applied, %d accepted, %d open transactions, rejected cost %g\n",
			st.Requests, st.Accepted, be.OpenTxs(), st.Objective)
	}
	if cov != nil {
		cst := cov.Snapshot()
		fmt.Fprintf(os.Stderr,
			"acserve: final cover stats: %d arrivals, %d sets chosen, cost %g\n",
			cst.Arrivals, cst.ChosenSets, cst.Cost)
	}
	if qeng != nil {
		qeng.Close()
		qst := qeng.Stats()
		fmt.Fprintf(os.Stderr,
			"acserve: final query stats: %d queries, %d accepted, %d errors, %d simulated arrivals\n",
			qst.Requests, qst.Accepted, qst.Errors, qeng.Simulated())
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acserve:", err)
	os.Exit(1)
}
