// Command acrouter fronts a cluster of acserve backends as one admission
// service (DESIGN.md §14, experiment E19): it consistent-hashes every
// request's edges to the backends owning them, forwards partition-local
// requests as offers, and runs the two-phase reserve/commit protocol for
// requests that span partitions — all over the binary wire protocol
// (DESIGN.md §11). Clients submit plain admission requests to
// /v1/admission exactly as against a single acserve; acload cannot tell
// the difference.
//
// The partition is derived, never transmitted: router and backends compute
// the same consistent-hash ring from the same (edge count, backend count,
// vnodes) triple, and each backend's expected engine fingerprint follows
// from its projected capacity slice. Start each backend with matching
// topology flags and its index:
//
//	acserve -addr :8081 -edges 64 -cap 8 -cluster-size 3 -cluster-index 0
//	acserve -addr :8082 -edges 64 -cap 8 -cluster-size 3 -cluster-index 1
//	acserve -addr :8083 -edges 64 -cap 8 -cluster-size 3 -cluster-index 2
//	acrouter -addr :8080 -edges 64 -cap 8 \
//	    -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// On startup the router probes every backend until it reports the derived
// fingerprint (bounded by -ready-timeout). A backend whose exchange fails
// mid-flight is shed — requests touching its partition are refused with
// typed partition-down errors while healthy partitions keep deciding —
// and re-admitted automatically once its applied watermark reconciles
// (every -resync-every, via the journal replay protocol).
//
// Endpoints:
//
//	POST /v1/admission       admission requests (JSON or binary wire);
//	                         one decision line per request
//	GET  /v1/admission/stats routed totals plus the per-backend
//	                         reconciliation ledger (JSON)
//	GET  /metrics            Prometheus text format
//	GET  /healthz            liveness; 503 while draining
//
// On SIGINT/SIGTERM the router drains in-flight submissions and prints
// the final reconciliation ledger to stderr; it exits 1 if the drain did
// not complete. The backends stay up — the router does not own them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"admission/internal/cluster"
	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/server"
	"admission/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		backends   = flag.String("backends", "", "comma-separated backend base URLs, in ring-index order (required)")
		wl         = flag.String("workload", "", "built-in workload supplying the global capacity vector (overrides -edges)")
		edges      = flag.Int("edges", 32, "number of edges for a flat network")
		capacity   = flag.Int("cap", 8, "per-edge capacity")
		shards     = flag.Int("shards", 1, "per-backend engine shard count (must match the backends)")
		seed       = flag.Uint64("seed", 1, "algorithm seed (must match the backends)")
		unweighted = flag.Bool("unweighted", false, "use the paper's unweighted constants (must match the backends)")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default; must match the backends)")
		batch      = flag.Int("batch", 256, "max items per engine batch")
		wireOK     = flag.Bool("wire", true, "accept binary wire-protocol submissions from clients")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		readyT     = flag.Duration("ready-timeout", 30*time.Second, "budget for every backend to report the derived fingerprint at startup")
		resync     = flag.Duration("resync-every", time.Second, "cooldown between automatic re-admission probes of a shed backend")
		attempts   = flag.Int("retry-attempts", 0, "backend exchange attempts (0 = client default)")
		retryBase  = flag.Duration("retry-base", 0, "backend retry backoff base (0 = client default)")
		retryMax   = flag.Duration("retry-max", 0, "backend retry backoff cap (0 = client default)")
	)
	flag.Parse()

	urls := splitURLs(*backends)
	if len(urls) == 0 {
		fail(fmt.Errorf("need -backends (comma-separated base URLs)"))
	}
	caps, err := workload.Capacities(*wl, *edges, *capacity, *seed)
	if err != nil {
		fail(err)
	}
	policy := cluster.RetryPolicy{MaxAttempts: *attempts, BaseDelay: *retryBase, MaxDelay: *retryMax}
	clients := make([]*cluster.Client, len(urls))
	for i, u := range urls {
		clients[i] = cluster.NewClient(u, policy)
	}
	router, err := cluster.NewRouter(caps, clients, cluster.RouterConfig{
		Backend:     cluster.BackendConfig{Engine: engine.Config{Shards: *shards, Algorithm: core.SeededConfig(*unweighted, *seed)}},
		Vnodes:      *vnodes,
		ResyncEvery: *resync,
	})
	if err != nil {
		fail(err)
	}
	ring := router.Ring()
	fmt.Fprintf(os.Stderr, "acrouter: partition: m=%d edges over %d backends\n", ring.NumEdges(), ring.Backends())
	for b, u := range urls {
		fmt.Fprintf(os.Stderr, "acrouter:   backend %d %s: %d edges, fingerprint %s\n",
			b, u, len(ring.Owned(b)), router.BackendFingerprint(b))
	}
	readyCtx, cancelReady := context.WithTimeout(context.Background(), *readyT)
	if err := router.WaitReady(readyCtx); err != nil {
		cancelReady()
		fail(fmt.Errorf("backends not ready: %w", err))
	}
	cancelReady()

	srv, err := server.New(server.Config{
		BatchSize: *batch,
		JSONOnly:  !*wireOK,
	}, server.RouterAdmission(router))
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "acrouter: routing /v1/admission on %s: batch %d, resync %v\n",
		ln.Addr(), *batch, *resync)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	announce := context.AfterFunc(ctx, func() { fmt.Fprintln(os.Stderr, "acrouter: draining") })
	runErr := srv.Run(ctx, ln, *drainT)
	announce()
	dctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := router.Drain(dctx); err != nil {
		runErr = errors.Join(runErr, fmt.Errorf("router drain: %w", err))
	}
	led := router.Ledger()
	_ = router.Close()
	fmt.Fprintf(os.Stderr, "acrouter: final stats: %d requests, %d accepted, %d shed refusals, %d cross-backend, rejected cost %g\n",
		led.Requests, led.Accepted, led.ShedRefusals, led.CrossBackend, led.RejectedCost)
	if buf, err := json.MarshalIndent(led.Backends, "", "  "); err == nil {
		fmt.Fprintf(os.Stderr, "acrouter: ledger: %s\n", buf)
	}
	if runErr != nil {
		fail(runErr)
	}
}

// splitURLs parses the -backends list, dropping empty entries.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acrouter:", err)
	os.Exit(1)
}
