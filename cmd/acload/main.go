// Command acload drives an acserve instance with generated traffic and
// reports achieved throughput and latency percentiles, making the serving
// layer benchmarkable end to end (DESIGN.md §7, experiment E14).
//
// Steady-state mode sends a named workload (the same registry acsim and
// acgen use) in batches over concurrent connections, optionally paced to a
// target rate:
//
//	acload -url http://127.0.0.1:8080 -workload grid -n 20000 -conns 8 -batch 256
//	acload -url http://127.0.0.1:8080 -workload single-edge -n 5000 -rps 10000
//
// -wire switches steady-state, cover and query submissions to the binary
// wire protocol (DESIGN.md §11) — decision-identical to JSON, built for
// throughput:
//
//	acload -url http://127.0.0.1:8080 -workload grid -n 20000 -conns 8 -wire
//
// The workload must fit the server's capacity vector: start acserve with
// the same -workload/-cap (or -edges ≥ the workload's edge count).
//
// Adversary mode plays an adaptive adversary one request at a time,
// reconstructing the rejected cost from the decision stream:
//
//	acload -url http://127.0.0.1:8080 -adversary weighted-trap -W 1000
//	acload -url http://127.0.0.1:8080 -adversary repeated-trap -rounds 16
//
// (Adversaries need a server over their own capacity vector: capacity-1
// edges, e.g. `acserve -edges 16 -cap 1`.)
//
// Cover mode drives the server's online set cover path (/v1/cover) with a
// named set-cover workload's arrival sequence — including the
// repeated-element adversary cover-repeat — and reports arrival
// throughput. The server must have been started with -cover and the same
// -cover-workload/-cover-seed pair so both sides hold the same set system:
//
//	acload -url http://127.0.0.1:8080 -cover -cover-workload cover-random -n 20000
//	acload -url http://127.0.0.1:8080 -cover -cover-workload cover-repeat -conns 8
//
// Query mode drives the server's local-computation query tier (/v1/query)
// with seeded random positions. The server must have been started with
// -query and a matching -query-workload/-query-seed pair (plus cost model,
// capacity and length) so both sides derive the same arrival order;
// -query-n must not exceed the server's:
//
//	acload -url http://127.0.0.1:8080 -query -query-n 4096 -n 20000 -conns 8 -wire
//
// Scenario mode replays a named, seeded churn script from the
// live-operations registry (internal/ops/scenario, DESIGN.md §15) —
// diurnal, flash-crowd, drain-shrink or adversary — driving both the
// submission path and, for scripts with admin actions, the /admin/v1/*
// control plane. The driver keeps a client-side per-edge ledger of
// accepted-minus-preempted requests and reconciles it exactly against the
// server's occupancy view afterwards, failing on any divergence. Scripts
// with admin actions need the server's -admin-token:
//
//	acload -url http://127.0.0.1:8080 -scenario flash-crowd -admin-token s3cret
//	acload -url http://127.0.0.1:8080 -scenario diurnal -edges 32
//
// Cluster mode (-cluster) drives an acrouter exactly like a single
// acserve — the routed /v1/admission path is request-compatible — and
// afterwards fetches the router's reconciliation ledger from the stats
// endpoint, printing per-backend applied counts, shed refusals and the
// cross-backend total, and failing if any ledger row is down or carries
// an unsettled journal:
//
//	acload -url http://127.0.0.1:8080 -cluster -workload single-edge -n 20000 -conns 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"admission/internal/lca"
	"admission/internal/ops"
	"admission/internal/ops/scenario"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/workload"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "acserve base URL")
		wl       = flag.String("workload", "grid", "named workload to send")
		costs    = flag.String("costs", "uniform", "cost model: unit | uniform | pareto")
		capacity = flag.Int("cap", 8, "per-edge capacity for the workload generator")
		n        = flag.Int("n", 10000, "requests to generate")
		seed     = flag.Uint64("seed", 1, "workload seed")
		conns    = flag.Int("conns", 4, "concurrent connections")
		batch    = flag.Int("batch", 128, "requests per HTTP submission")
		rps      = flag.Float64("rps", 0, "target requests/sec over all connections (0 = unthrottled)")
		repeat   = flag.Int("repeat", 1, "times to cycle the sequence")
		wireOn   = flag.Bool("wire", false, "submit over the binary wire protocol (steady-state, cover and query modes)")
		advName  = flag.String("adversary", "", "adaptive adversary mode: weighted-trap | path-trap | repeated-trap")
		advW     = flag.Float64("W", 1000, "adversary: expensive-request cost")
		advK     = flag.Int("K", 8, "adversary: path length (path-trap)")
		advR     = flag.Int("rounds", 8, "adversary: trap rounds (repeated-trap)")

		cover     = flag.Bool("cover", false, "drive the set cover path (/v1/cover) instead of /v1/admission")
		coverWl   = flag.String("cover-workload", "cover-random", "named set-cover workload (must match the server's)")
		coverSeed = flag.Uint64("cover-seed", 1, "set-cover workload seed (must match the server's)")

		clusterOn = flag.Bool("cluster", false, "after the run, fetch and verify the acrouter reconciliation ledger from the stats endpoint")

		scName     = flag.String("scenario", "", "replay a named live-operations churn scenario: adversary | diurnal | drain-shrink | flash-crowd")
		scEdges    = flag.Int("edges", 32, "scenario mode: number of edges the server was started with (ignored with -admin-token, which learns it from occupancy)")
		adminToken = flag.String("admin-token", "", "server admin token; required by scenarios with admin actions and for the post-run ledger reconciliation")

		query     = flag.Bool("query", false, "drive the local-computation query tier (/v1/query) instead of /v1/admission")
		queryN    = flag.Int("query-n", 4096, "positions of the server's query arrival order (must not exceed the server's -query-n)")
		querySeed = flag.Uint64("query-pos-seed", 1, "seed for the random query positions")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	lf := loadFlags{url: *url, conns: *conns, batch: *batch, rps: *rps, repeat: *repeat, wire: *wireOn}

	if *advName != "" {
		runAdversary(ctx, *url, *advName, *advW, *advK, *advR)
		return
	}
	if *cover {
		runCover(ctx, lf, *coverWl, *coverSeed, *n)
		return
	}
	if *query {
		runQuery(ctx, lf, *queryN, *querySeed, *n)
		return
	}
	if *scName != "" {
		runScenario(ctx, *url, *scName, *adminToken, *scEdges, *capacity, int64(*seed), *conns)
		return
	}

	model, err := workload.ParseCostModel(*costs)
	if err != nil {
		fail(err)
	}
	ins, err := workload.BuildNamed(*wl, model, *capacity, *n, *seed)
	if err != nil {
		fail(err)
	}
	report := runLoad(ctx, lf, ins.Requests, server.NewAdmissionClient, server.NewAdmissionWireClient)
	fmt.Println(report)
	fmt.Printf("admission:   %d accepted, %d preemptions\n", report.Accepted, report.Preempted)
	if *clusterOn {
		if err := printLedger(ctx, *url); err != nil {
			fail(err)
		}
	}
}

// loadFlags are the flags every load mode shares.
type loadFlags struct {
	url                  string
	conns, batch, repeat int
	rps                  float64
	wire                 bool
}

// runLoad sends items through server.RunLoad with the shared flags, over
// the JSON client or, with -wire, the binary one, and returns the report.
func runLoad[Req any, Dec server.WireDecision](ctx context.Context, lf loadFlags, items []Req,
	jsonClient, wireClient func(baseURL string, maxConns int) *server.Client[Req, Dec]) *server.LoadReport {
	newClient := jsonClient
	if lf.wire {
		newClient = wireClient
	}
	report, err := server.RunLoad(ctx, newClient, server.LoadConfig[Req]{
		BaseURL: lf.url,
		Items:   items,
		Conns:   lf.conns,
		Batch:   lf.batch,
		RPS:     lf.rps,
		Repeat:  lf.repeat,
	})
	if err != nil {
		fail(err)
	}
	return report
}

// printLedger fetches the acrouter reconciliation ledger from the stats
// endpoint and prints one line per backend. It fails when a backend is
// down or its journal holds unsettled operations — after a drained run
// the router's account of every backend must be exact.
func printLedger(ctx context.Context, url string) error {
	client := server.NewAdmissionClient(url, 1)
	defer client.CloseIdle()
	var st server.RouterStatsJSON
	if err := client.Stats(ctx, &st); err != nil {
		return fmt.Errorf("router stats: %w", err)
	}
	if len(st.Backends) == 0 {
		return fmt.Errorf("stats body carries no backend ledger — is %s an acrouter?", url)
	}
	fmt.Printf("cluster:     %d backends, %d cross-backend requests, %d shed refusals\n",
		len(st.Backends), st.CrossBackend, st.ShedRefusals)
	var bad int
	for b, row := range st.Backends {
		status := "reconciled"
		if row.Down {
			status = "DOWN: " + row.Cause
			bad++
		} else if row.Journal != 0 {
			status = fmt.Sprintf("UNSETTLED: %d journaled ops", row.Journal)
			bad++
		}
		fmt.Printf("  backend %d: %d ops acked (%d sent, %d phantoms, %d resyncs) — %s\n",
			b, row.Acked, row.Sent, row.Phantoms, row.Resyncs, status)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d backend ledgers failed reconciliation", bad, len(st.Backends))
	}
	return nil
}

// runAdversary plays one adaptive adversary game over HTTP and prints the
// reconstructed outcome.
func runAdversary(ctx context.Context, url, name string, w float64, k, rounds int) {
	var adv workload.Adversary
	switch name {
	case "weighted-trap":
		adv = &workload.WeightedRatioAdversary{W: w}
	case "path-trap":
		adv = &workload.PathRatioAdversary{K: k}
	case "repeated-trap":
		adv = &workload.RepeatedTrapAdversary{Rounds: rounds, W: w}
	default:
		fail(fmt.Errorf("unknown adversary %q (want weighted-trap|path-trap|repeated-trap)", name))
	}
	res, err := server.RunAdversarial(ctx, url, adv)
	if err != nil {
		fail(err)
	}
	fmt.Printf("adversary:      %s\n", workload.Describe(adv))
	fmt.Printf("requests:       %d\n", res.Requests)
	fmt.Printf("accepted:       %d (final)\n", res.Accepted)
	fmt.Printf("preemptions:    %d\n", res.Preemptions)
	fmt.Printf("rejected cost:  %g\n", res.RejectedCost)
}

// runCover drives /v1/cover with a named set-cover workload's arrivals and
// prints the throughput/latency summary.
func runCover(ctx context.Context, lf loadFlags, name string, seed uint64, n int) {
	w, err := workload.BuildNamedCover(name, n, seed)
	if err != nil {
		fail(err)
	}
	report := runLoad(ctx, lf, w.Arrivals, server.NewCoverClient, server.NewCoverWireClient)
	fmt.Printf("cover workload: %s (n=%d elements, m=%d sets)\n", w.Name, w.Instance.N, w.Instance.M())
	fmt.Println(report)
	fmt.Printf("cover:       %d sets bought, cost %g\n", report.SetsBought, report.CostAdded)
}

// runScenario replays one named churn scenario against the server. With a
// token it learns the capacity vector from the admin occupancy view and
// reconciles the client-side ledger against it afterwards; without one it
// assumes a flat edges×cap vector and skips reconciliation (the admin
// plane is not mounted, so there is no occupancy view to audit against).
func runScenario(ctx context.Context, url, name, token string, edges, capacity int, seed int64, conns int) {
	d := &scenario.Driver{
		Client: server.NewAdmissionClient(url, conns),
		Seed:   seed,
	}
	m := edges
	baseline := 0
	if token != "" {
		d.Admin = ops.NewAdminClient(url, token)
		occ, err := d.Admin.Occupancy(ctx)
		if err != nil {
			fail(fmt.Errorf("scenario: fetching occupancy: %w", err))
		}
		if occ.Admission == nil {
			fail(fmt.Errorf("scenario: server has no admission workload mounted"))
		}
		m = len(occ.Admission.Edges)
		baseline = occ.Admission.Load
	} else {
		d.Caps = make([]int, edges)
		for i := range d.Caps {
			d.Caps[i] = capacity
		}
	}
	sc, err := scenario.Lookup(name, m)
	if err != nil {
		fail(err)
	}
	rep, err := d.Run(ctx, sc)
	if err != nil {
		fail(err)
	}
	fmt.Printf("scenario:    %s (%s), seed %d, %d ticks\n", sc.Name, sc.About, seed, rep.Ticks)
	fmt.Printf("traffic:     %d submitted, %d accepted, %d rejected, %d preempted, %d errors\n",
		rep.Submitted, rep.Accepted, rep.Rejected, rep.Preempted, rep.Errors)
	if len(rep.Resizes) > 0 {
		fmt.Printf("capacity:    %d resizes (+%d / -%d units applied)\n",
			len(rep.Resizes), rep.GrownUnits, rep.ShrunkUnits)
	}
	if d.Admin == nil {
		fmt.Println("ledger:      reconciliation skipped (no -admin-token, occupancy view unavailable)")
		return
	}
	if baseline > 0 {
		// Exact reconciliation needs an idle engine at the start of the
		// run: the ledger tracks only this run's request IDs, so load that
		// predates it cannot be attributed edge by edge.
		fmt.Printf("ledger:      reconciliation skipped (server started with %d live requests; use a fresh server for an exact audit)\n", baseline)
		return
	}
	occ, err := d.Admin.Occupancy(ctx)
	if err != nil {
		fail(fmt.Errorf("scenario: fetching final occupancy: %w", err))
	}
	if err := rep.Reconcile(occ); err != nil {
		fail(err)
	}
	fmt.Printf("ledger:      reconciled exactly (%d live requests over %d edges)\n",
		len(rep.Live()), len(rep.Loads))
}

// runQuery drives /v1/query with n seeded random positions in [0, posN)
// and prints the throughput/latency summary.
func runQuery(ctx context.Context, lf loadFlags, posN int, posSeed uint64, n int) {
	if posN <= 0 || n <= 0 {
		fail(fmt.Errorf("need -query-n > 0 and -n > 0"))
	}
	r := rng.New(posSeed)
	qs := make([]lca.Query, n)
	for i := range qs {
		qs[i] = lca.Query{Pos: int(r.Uint64() % uint64(posN))}
	}
	report := runLoad(ctx, lf, qs, server.NewQueryClient, server.NewQueryWireClient)
	fmt.Printf("query tier:  %d positions\n", posN)
	fmt.Println(report)
	fmt.Printf("queries:     %d accepted, %d preempted positions\n", report.Accepted, report.Preempted)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acload:", err)
	os.Exit(1)
}
