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
// sequence itself is never transmitted. Exact queries share one decided
// prefix, extended on demand; -query-workers bounds concurrent queries:
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
//	POST /v1/query           one query {"pos":17} (optionally with
//	                         "fidelity":"neighborhood") or an array; one
//	                         NDJSON reconstructed-decision line per query
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
// rejected.
//
// With -wal-dir the server is durable (DESIGN.md §12): every decision is
// appended to a per-workload write-ahead log under the directory
// (<dir>/admission, and <dir>/cover with -cover) and group-commit-fsynced
// before its response line is released, and the log is snapshotted every
// -snapshot-every decisions. On startup any prior state in the directory
// is recovered — replayed through the freshly built engines and verified
// decision-for-decision — before the listener opens, so a restart
// continues the decision stream exactly where the crash cut it off
// (experiment E17). The engine flags must match the recorded run;
// wal.Open rejects a mismatched configuration fingerprint.
//
//	acserve -addr :8080 -edges 64 -cap 16 -shards 8 -wal-dir /var/lib/acserve
//
// On SIGINT/SIGTERM the server stops accepting connections, completes
// in-flight submissions (HTTP drain, then pipeline drain), snapshots and
// closes the decision logs if durable, closes the engines, and prints
// final statistics to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
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
		batch      = flag.Int("batch", 256, "max submissions coalesced into one engine batch")
		queue      = flag.Int("queue", 8192, "queued-item bound per workload (backpressure)")
		wireOK     = flag.Bool("wire", true, "accept binary wire-protocol submissions (Content-Type application/x-acwire); -wire=false answers them 415 and serves JSON only")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		adminToken = flag.String("admin-token", "", "bearer token mounting the /admin/v1/* control plane and gating /metrics + stats (empty = admin plane disabled, observability open)")
		walDir     = flag.String("wal-dir", "", "directory for per-workload decision WALs; enables durability and crash recovery (empty = in-memory only)")
		snapEvery  = flag.Int64("snapshot-every", 100000, "logged decisions between automatic WAL snapshots (0 = only the shutdown snapshot)")

		query        = flag.Bool("query", false, "also serve local-computation decision queries (/v1/query)")
		queryWl      = flag.String("query-workload", "random", "named workload supplying the query tier's seeded arrival order")
		queryCosts   = flag.String("query-costs", "uniform", "query arrival-order cost model: unit | uniform | pareto")
		queryCap     = flag.Int("query-cap", 8, "per-edge capacity of the query arrival order")
		queryN       = flag.Int("query-n", 4096, "query arrival-order length (queryable positions)")
		querySeed    = flag.Uint64("query-seed", 1, "query arrival-order seed (must match the client's)")
		queryWorkers = flag.Int("query-workers", 0, "concurrent query computations (0 = GOMAXPROCS)")

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

	caps, err := buildCapacities(*wl, *edges, *capacity, *seed)
	if err != nil {
		fail(err)
	}
	acfg := core.DefaultConfig()
	if *unweighted {
		acfg = core.UnweightedConfig()
	}
	acfg.Seed = *seed
	if *clusterSize > 0 {
		if *cover || *query {
			fail(fmt.Errorf("cluster mode serves only the cluster workload; drop -cover/-query"))
		}
		serveClusterBackend(caps, engine.Config{Shards: *shards, Algorithm: acfg}, clusterFlags{
			size: *clusterSize, index: *clusterIndex, vnodes: *clusterVn,
			addr: *addr, batch: *batch, queue: *queue,
			wire: *wireOK, drainT: *drainT, walDir: *walDir, snapEvery: *snapEvery,
			adminToken: *adminToken,
		})
		return
	}
	eng, err := engine.New(caps, engine.Config{Shards: *shards, Algorithm: acfg})
	if err != nil {
		fail(err)
	}
	var (
		regs   []server.Registration
		admLog *wal.Log
	)
	if *walDir == "" {
		regs = append(regs, server.Admission(eng))
	} else {
		admLog, err = wal.Open(filepath.Join(*walDir, "admission"),
			wal.Options{Kind: wal.KindAdmission, Fingerprint: eng.Fingerprint()})
		if err != nil {
			fail(err)
		}
		info, err := server.RecoverAdmission(admLog, eng)
		if err != nil {
			fail(err)
		}
		reportRecovery("admission", admLog, info)
		regs = append(regs, server.AdmissionDurable(eng, admLog,
			server.DurableOptions{SnapshotEvery: *snapEvery, Replay: info}))
	}
	var (
		cov    *coverengine.Engine
		covLog *wal.Log
	)
	if *cover {
		cov, err = buildCover(*coverWl, *coverSeed, *coverSh, *coverMode, *coverEps)
		if err != nil {
			fail(err)
		}
		if *walDir == "" {
			regs = append(regs, server.Cover(cov))
		} else {
			covLog, err = wal.Open(filepath.Join(*walDir, "cover"),
				wal.Options{Kind: wal.KindCover, Fingerprint: cov.Fingerprint()})
			if err != nil {
				fail(err)
			}
			info, err := server.RecoverCover(covLog, cov)
			if err != nil {
				fail(err)
			}
			reportRecovery("cover", covLog, info)
			regs = append(regs, server.CoverDurable(cov, covLog,
				server.DurableOptions{SnapshotEvery: *snapEvery, Replay: info}))
		}
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
			Workers:   *queryWorkers,
		})
		if err != nil {
			fail(err)
		}
		regs = append(regs, server.Query(qeng))
	}
	srv, err := server.New(server.Config{
		BatchSize:  *batch,
		QueueLen:   *queue,
		JSONOnly:   !*wireOK,
		AdminToken: *adminToken,
	}, regs...)
	if err != nil {
		fail(err)
	}

	httpSrv := srv.HTTPServer(*addr)
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "acserve: serving workloads [%s] on %s: m=%d edges (max capacity %d), %d shards, batch %d\n",
			strings.Join(srv.Workloads(), " "), *addr, len(caps), maxOf(caps), eng.Shards(), *batch)
		if cov != nil {
			fmt.Fprintf(os.Stderr, "acserve: cover: %s (%s), n=%d elements, m=%d sets, %d shards\n",
				*coverWl, cov.Mode(), cov.NumElements(), cov.NumSets(), cov.Shards())
		}
		if qeng != nil {
			src := qeng.Source()
			fmt.Fprintf(os.Stderr, "acserve: query: %s/%s seed %d, %d positions, %d workers\n",
				src.Workload, src.Model, src.Seed, qeng.Positions(), qeng.Workers())
		}
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fail(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "acserve: %v — draining\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "acserve: http shutdown: %v\n", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "acserve: pipeline drain: %v\n", err)
	}
	// The pipelines have exited, so the engines are quiescent: stamp a
	// final snapshot into each log so the next start replays nothing.
	finishLog("admission", admLog, eng.StateDigest)
	if cov != nil {
		finishLog("cover", covLog, cov.StateDigest)
	}
	eng.Close()
	st := eng.Snapshot()
	fmt.Fprintf(os.Stderr,
		"acserve: final stats: %d requests, %d accepted, %d preemptions, rejected cost %g\n",
		st.Requests, st.Accepted, st.Preemptions, st.RejectedCost)
	if cov != nil {
		cov.Close()
		cst := cov.Snapshot()
		fmt.Fprintf(os.Stderr,
			"acserve: final cover stats: %d arrivals, %d sets chosen, cost %g\n",
			cst.Arrivals, cst.ChosenSets, cst.Cost)
	}
	if qeng != nil {
		qeng.Close()
		qst := qeng.Stats()
		fmt.Fprintf(os.Stderr,
			"acserve: final query stats: %d queries, %d accepted, %d errors, %g replayed arrivals\n",
			qst.Requests, qst.Accepted, qst.Errors, qst.Objective)
	}
}

// clusterFlags carries the serving knobs into the cluster-backend mode.
type clusterFlags struct {
	size, index, vnodes int
	addr                string
	batch, queue        int
	drainT              time.Duration
	wire                bool
	walDir              string
	snapEvery           int64
	adminToken          string
}

// serveClusterBackend runs the server as one backend of an acrouter
// cluster: it projects the global capacity vector onto this index's ring
// partition, serves the cluster operation protocol under /v1/cluster —
// durably when -wal-dir is set — and on SIGINT/SIGTERM drains, snapshots
// and reports the applied history the router reconciles against.
func serveClusterBackend(caps []int, ecfg engine.Config, f clusterFlags) {
	if f.index < 0 || f.index >= f.size {
		fail(fmt.Errorf("-cluster-index %d outside [0, %d)", f.index, f.size))
	}
	ring, err := cluster.NewRing(len(caps), f.size, f.vnodes)
	if err != nil {
		fail(err)
	}
	bcaps, err := ring.Caps(caps, f.index)
	if err != nil {
		fail(err)
	}
	be, err := cluster.NewBackend(bcaps, cluster.BackendConfig{Engine: ecfg})
	if err != nil {
		fail(err)
	}
	var reg server.Registration
	var cluLog *wal.Log
	if f.walDir == "" {
		reg = server.ClusterBackend(be)
	} else {
		cluLog, err = wal.Open(filepath.Join(f.walDir, "cluster"),
			wal.Options{Kind: wal.KindCluster, Fingerprint: be.Fingerprint()})
		if err != nil {
			fail(err)
		}
		info, err := server.RecoverCluster(cluLog, be)
		if err != nil {
			fail(err)
		}
		reportRecovery("cluster", cluLog, info)
		reg = server.ClusterBackendDurable(be, cluLog,
			server.DurableOptions{SnapshotEvery: f.snapEvery, Replay: info})
	}
	srv, err := server.New(server.Config{
		BatchSize:  f.batch,
		QueueLen:   f.queue,
		JSONOnly:   !f.wire,
		AdminToken: f.adminToken,
	}, reg)
	if err != nil {
		fail(err)
	}

	httpSrv := srv.HTTPServer(f.addr)
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr,
			"acserve: cluster backend %d/%d on %s: %d of %d edges, fingerprint %s, %d shards\n",
			f.index, f.size, f.addr, len(bcaps), len(caps), be.Fingerprint(), be.Engine().Shards())
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fail(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "acserve: %v — draining\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), f.drainT)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "acserve: http shutdown: %v\n", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "acserve: pipeline drain: %v\n", err)
	}
	finishLog("cluster", cluLog, be.StateDigest)
	st := be.Stats()
	_ = be.Close()
	fmt.Fprintf(os.Stderr,
		"acserve: final cluster stats: %d operations applied, %d accepted, %d open transactions, rejected cost %g\n",
		st.Requests, st.Accepted, be.OpenTxs(), st.Objective)
}

// reportRecovery prints one startup line summarizing what a workload's WAL
// recovery replayed.
func reportRecovery(name string, log *wal.Log, info server.RecoveryInfo) {
	fmt.Fprintf(os.Stderr,
		"acserve: %s wal: recovered %d decisions (%d snapshot + %d tail) in %v, next seq %d",
		name, info.SnapshotSeq+info.TailRecords, info.SnapshotSeq, info.TailRecords,
		info.Duration.Round(time.Millisecond), log.NextSeq())
	if info.TornBytes > 0 {
		fmt.Fprintf(os.Stderr, " (truncated a %d-byte torn final record)", info.TornBytes)
	}
	fmt.Fprintln(os.Stderr)
}

// finishLog writes the shutdown snapshot (when decisions were logged since
// the last one) and closes the log. Safe to call with a nil log.
func finishLog(name string, log *wal.Log, digest func() uint64) {
	if log == nil {
		return
	}
	if log.RecordsSinceSnapshot() > 0 {
		if err := log.WriteSnapshot(digest()); err != nil {
			fmt.Fprintf(os.Stderr, "acserve: %s wal: shutdown snapshot: %v\n", name, err)
		}
	}
	if err := log.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "acserve: %s wal: close: %v\n", name, err)
	}
}

// buildCover constructs the cover engine from a named set-cover workload.
func buildCover(name string, seed uint64, shards int, mode string, eps float64) (*coverengine.Engine, error) {
	w, err := workload.BuildNamedCover(name, 0, seed)
	if err != nil {
		return nil, err
	}
	cfg := coverengine.Config{Shards: shards, Seed: seed, Eps: eps}
	switch mode {
	case "reduction":
		cfg.Mode = coverengine.ModeReduction
	case "bicriteria":
		cfg.Mode = coverengine.ModeBicriteria
	default:
		return nil, fmt.Errorf("acserve: unknown cover mode %q (want reduction|bicriteria)", mode)
	}
	return coverengine.New(w.Instance, cfg)
}

// buildCapacities derives the capacity vector: from a named workload's
// generated topology, or a flat vector of `edges` copies of `capacity`.
func buildCapacities(wl string, edges, capacity int, seed uint64) ([]int, error) {
	if wl != "" {
		ins, err := workload.BuildNamed(wl, workload.CostUnit, capacity, 0, seed)
		if err != nil {
			return nil, err
		}
		return ins.Capacities, nil
	}
	if edges <= 0 || capacity <= 0 {
		return nil, fmt.Errorf("acserve: need -edges > 0 and -cap > 0")
	}
	caps := make([]int, edges)
	for i := range caps {
		caps[i] = capacity
	}
	return caps, nil
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acserve:", err)
	os.Exit(1)
}
