package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"admission/internal/cluster"
	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/stats"
)

// --- E19: cluster tier — routed identity, throughput, fault injection ----
//
// E19 validates the multi-node cluster tier (internal/cluster, DESIGN.md
// §14) end to end, in three legs over the same seeded workload:
//
//  1. Identity: the full routed path — admission client → acrouter HTTP
//     server → consistent-hash router → cluster RPC → one acserve-style
//     backend — at conns=1 must produce a decision stream line-identical
//     (id, accepted, cross-shard, preempted) to a direct sequential run of
//     the same seeded engine, and land on the same state digest. With one
//     backend the ring maps every edge to itself, so any divergence is
//     protocol overhead showing through — the E14/E17 identity standard
//     lifted across two RPC hops.
//  2. Throughput: the same stream served by a cluster of 3 partitioned
//     backends behind the router must cost at most 2x the process CPU per
//     decision of a single-node acserve (same batch size and
//     connections). The extra hop and the two-phase reserve/commit waves
//     cost the cluster extra work per batch; this leg bounds that tax.
//  3. Fault injection: with backend 1 re-executed as a durable child
//     process (cluster WAL, PR 7 building blocks), the parent SIGKILLs it
//     mid-load. The router must shed exactly the requests touching the
//     dead partition with typed ErrPartitionDown refusals — no hangs,
//     healthy partitions keep deciding — and after a restart from the WAL
//     (recovery replays the log and re-verifies every decision, so coming
//     up at all proves decision-identical recovery) a resync re-admits the
//     backend. Final gates: recovered == acknowledged, every router↔
//     backend ledger reconciles exactly (acked == applied, empty
//     journals), and an offline read-only replay of the child's WAL lands
//     on the digest the live backend reported.
//
// Acceptance (see EXPERIMENTS.md §E19): leg 1 identical, leg 2 CPU per
// decision ratio ≤2x, leg 3 recovered == acked with exact ledger
// reconciliation and matching digests.

func init() {
	registry = append(registry,
		Experiment{"E19", "Cluster tier: routed identity, cluster-of-3 throughput, SIGKILL fault injection (DESIGN.md §14)", runE19},
	)
}

const (
	e19ClusterSize  = 3
	e19Batch        = 256
	e19MinThruItems = 4096
	e19ThruPairs    = 5 // paired single-node/cluster attempts of the gated leg
)

// e19ThruConns is the connection count of the throughput leg, identical
// on both sides. Concurrent batches keep a CPU-bound single node busy and
// let the cluster overlap its two-phase RPC waves — at conns=1 the
// cluster idles between waves and the comparison measures latency, not
// throughput.
const e19ThruConns = 4

// e19EngineConfig is the deterministic per-backend engine configuration
// every leg shares (and the direct golden engine of the identity leg).
func e19EngineConfig(seed uint64) engine.Config {
	acfg := core.UnweightedConfig()
	acfg.Seed = seed
	return engine.Config{Shards: 2, Algorithm: acfg}
}

// e19Policy is the cluster client retry policy of the in-process legs:
// short backoff so a SIGKILLed backend is detected in milliseconds, two
// attempts so a transient refusal still gets its retry.
func e19Policy() cluster.RetryPolicy {
	return cluster.RetryPolicy{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
}

// e19Cluster is an in-process cluster topology: partitioned backends each
// behind its own loopback, a router over cluster clients to all of them,
// and the router itself served on an acrouter-style loopback.
type e19Cluster struct {
	ring     *cluster.Ring
	backends []*cluster.Backend // nil where the backend runs elsewhere
	clients  []*cluster.Client
	router   *cluster.Router
	base     string // router loopback base URL
	closers  []func()
}

func (c *e19Cluster) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// e19StartCluster stands the topology up over len(remote) partitions and
// waits for the router to verify every backend fingerprint. A non-empty
// remote[b] is the base URL of a backend b running elsewhere; the others
// are built and served in-process.
func e19StartCluster(caps []int, ecfg engine.Config, remote []string) (*e19Cluster, error) {
	tc := &e19Cluster{backends: make([]*cluster.Backend, len(remote))}
	fail := func(err error) (*e19Cluster, error) {
		tc.close()
		return nil, err
	}
	serveOn := func(reg server.Registration) (string, error) {
		lb, err := serve(server.Config{}, reg)
		if err != nil {
			return "", err
		}
		tc.closers = append(tc.closers, func() { _ = lb.close() })
		return lb.URL, nil
	}

	ring, err := cluster.NewRing(len(caps), len(remote), 0)
	if err != nil {
		return fail(err)
	}
	tc.ring = ring
	for b, base := range remote {
		if base == "" {
			bcaps, err := ring.Caps(caps, b)
			if err != nil {
				return fail(err)
			}
			be, err := cluster.NewBackend(bcaps, cluster.BackendConfig{Engine: ecfg})
			if err != nil {
				return fail(err)
			}
			tc.backends[b] = be
			tc.closers = append(tc.closers, func() { be.Close() })
			if base, err = serveOn(server.ClusterBackend(be)); err != nil {
				return fail(err)
			}
		}
		tc.clients = append(tc.clients, cluster.NewClient(base, e19Policy()))
	}
	router, err := cluster.NewRouter(caps, tc.clients,
		cluster.RouterConfig{Backend: cluster.BackendConfig{Engine: ecfg}, ResyncEvery: time.Hour})
	if err != nil {
		return fail(err)
	}
	tc.router = router
	tc.closers = append(tc.closers, func() { _ = router.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := router.WaitReady(ctx); err != nil {
		return fail(err)
	}
	if tc.base, err = serveOn(server.RouterAdmission(router)); err != nil {
		return fail(err)
	}
	return tc, nil
}

// e19Reconcile holds every backend ledger row to the exact-reconciliation
// standard: nothing in doubt, nothing down, and the router's acknowledged
// count equal to the operation count the backend itself reports.
func e19Reconcile(ctx context.Context, router *cluster.Router, clients []*cluster.Client) error {
	led := router.Ledger()
	for b, row := range led.Backends {
		if row.Down {
			return fmt.Errorf("backend %d still down: %s", b, row.Cause)
		}
		if row.Journal != 0 {
			return fmt.Errorf("backend %d has %d in-doubt journal entries", b, row.Journal)
		}
		st, err := clients[b].Stats(ctx)
		if err != nil {
			return fmt.Errorf("backend %d stats: %w", b, err)
		}
		if row.Acked != st.Requests {
			return fmt.Errorf("backend %d ledger: router acked %d, backend applied %d", b, row.Acked, st.Requests)
		}
	}
	return nil
}

// e19Identity runs the identity leg: the routed conns=1 stream over a
// single-backend cluster against the golden direct stream.
func e19Identity(ins *problem.Instance, ecfg engine.Config, golden []server.DecisionJSON, goldenDigest uint64) error {
	tc, err := e19StartCluster(ins.Capacities, ecfg, make([]string, 1))
	if err != nil {
		return err
	}
	defer tc.close()
	got, _, _, err := stream(server.NewAdmissionClient(tc.base, 1), ins.Requests, e19Batch)
	if err == nil {
		err = sameLines(got, golden, 0, sameAdmission)
	}
	if err != nil {
		return fmt.Errorf("routed %w", err)
	}
	ctx := context.Background()
	if err := tc.router.Drain(ctx); err != nil {
		return err
	}
	if d := tc.backends[0].StateDigest(); d != goldenDigest {
		return fmt.Errorf("routed digest %016x, golden %016x", d, goldenDigest)
	}
	return e19Reconcile(ctx, tc.router, tc.clients)
}

// e19ThroughputStream synthesizes a throughput stream: single-edge offers
// spread across all partitions, with one cross-partition pair in every
// crossEvery requests (0 disables the mix). Single-edge traffic measures
// the tier's serving tax (routing, RPC framing, the extra hop); crossed
// traffic instead measures cross-shard amplification — every request
// touching k partitions costs 2k backend operations by protocol design —
// which the identity and fault legs exercise and the ledger's
// cross-backend counter reports.
func e19ThroughputStream(m int, seed uint64, crossEvery int) []problem.Request {
	r := rng.New(seed ^ 0x19747)
	reqs := make([]problem.Request, 0, e19MinThruItems)
	for len(reqs) < e19MinThruItems {
		e := r.Intn(m)
		req := problem.Request{Edges: []int{e}, Cost: 1}
		if crossEvery > 0 && len(reqs)%crossEvery == crossEvery-1 {
			req.Edges = []int{e, (e + 1 + r.Intn(m-1)) % m}
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// e19Throughput serves the stream once through a topology and returns the
// load report. single selects a plain one-node acserve instead of the
// cluster-of-3.
func e19Throughput(ins *problem.Instance, ecfg engine.Config, reqs []problem.Request, single bool) (*server.LoadReport, error) {
	var base string
	if single {
		eng, err := engine.New(ins.Capacities, ecfg)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		lb, err := serve(server.Config{}, server.Admission(eng))
		if err != nil {
			return nil, err
		}
		defer lb.close()
		base = lb.URL
	} else {
		tc, err := e19StartCluster(ins.Capacities, ecfg, make([]string, e19ClusterSize))
		if err != nil {
			return nil, err
		}
		defer tc.close()
		base = tc.base
	}
	return server.RunLoad(context.Background(), server.NewAdmissionClient, server.LoadConfig[problem.Request]{
		BaseURL: base,
		Items:   reqs,
		Conns:   e19ThruConns,
		Batch:   e19Batch,
	})
}

// e19FaultResult carries the fault-injection leg's measurements into the
// table.
type e19FaultResult struct {
	ackedPreKill int64 // ops acknowledged by backend 1 before the SIGKILL
	shed         int64 // typed ErrPartitionDown refusals while it was down
	servedDown   int   // healthy-partition decisions made while it was down
	recovered    int64 // decisions the restarted child replayed from its WAL
	digest       string
}

// e19Fault runs the fault-injection leg against a cluster whose backend 1
// is a re-executed durable child.
func e19Fault(ins *problem.Instance, ecfg engine.Config, seed uint64, m int) (res e19FaultResult, err error) {
	n := len(ins.Requests)
	dir, err := os.MkdirTemp("", "e19-wal-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	// Durable child as backend 1, in-process backends 0 and 2. The
	// restarted child takes the first incarnation's address, so the
	// router's client reaches both.
	spec := childSpec{Role: roleCluster, Dir: dir, Seed: seed, Edges: m,
		SnapEvery: max(int64(n/4), 16), Backends: e19ClusterSize, Index: 1}
	c1, err := spawnChild(spec)
	if err != nil {
		return res, err
	}
	childUp := c1
	defer func() {
		if childUp != nil {
			childUp.kill()
		}
	}()
	if c1.recovered != 0 {
		return res, fmt.Errorf("fresh child recovered %d operations from an empty directory", c1.recovered)
	}
	spec.Addr = c1.addr
	remote := make([]string, e19ClusterSize)
	remote[1] = "http://" + c1.addr
	tc, err := e19StartCluster(ins.Capacities, ecfg, remote)
	if err != nil {
		return res, err
	}
	defer tc.close()
	router, ring, clients := tc.router, tc.ring, tc.clients
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Phase 1: healthy cluster, roughly half the stream.
	batch := max(1, min(e19Batch, n/4))
	killAt := n / 2
	submit := func(lo, hi int) ([]engine.Decision, error) {
		return router.SubmitBatch(ctx, ins.Requests[lo:hi])
	}
	pos := 0
	for pos < killAt {
		hi := min(pos+batch, killAt)
		ds, serr := submit(pos, hi)
		if serr != nil {
			return res, fmt.Errorf("pre-kill submit at %d: %w", pos, serr)
		}
		for i, d := range ds {
			if d.Err != nil {
				return res, fmt.Errorf("pre-kill decision %d refused: %v", pos+i, d.Err)
			}
		}
		pos = hi
	}
	res.ackedPreKill = router.Ledger().Backends[1].Acked

	// SIGKILL between batches: every in-flight exchange has completed, so
	// the router's view and the WAL agree exactly (the indeterminate
	// mid-exchange window is pinned separately by the package tests).
	c1.kill()
	childUp = nil

	// Phase 2: drive the rest of the stream into the degraded cluster.
	// Requests touching partition 1 must come back as typed
	// ErrPartitionDown refusals; the rest must keep deciding.
	for pos < n {
		hi := min(pos+batch, n)
		ds, serr := submit(pos, hi)
		if serr != nil {
			return res, fmt.Errorf("degraded submit at %d: %w", pos, serr)
		}
		for i, d := range ds {
			touched, _ := ring.Group(ins.Requests[pos+i].Edges)
			touches1 := false
			for _, b := range touched {
				touches1 = touches1 || b == 1
			}
			switch {
			case d.Err == nil && !touches1:
				res.servedDown++
			case d.Err == nil && touches1:
				return res, fmt.Errorf("degraded decision %d touches the dead partition yet was decided", pos+i)
			case !errors.Is(d.Err, cluster.ErrPartitionDown):
				return res, fmt.Errorf("degraded decision %d: %v, want ErrPartitionDown", pos+i, d.Err)
			}
		}
		pos = hi
	}
	// Deterministic probes: one edge owned by the dead partition must be
	// shed, one owned by a healthy partition must be decided.
	probeShed := problem.Request{Edges: []int{ring.Owned(1)[0]}, Cost: 1}
	probeServe := problem.Request{Edges: []int{ring.Owned(0)[0]}, Cost: 1}
	ds, err := router.SubmitBatch(ctx, []problem.Request{probeShed, probeServe})
	if err != nil {
		return res, err
	}
	if !errors.Is(ds[0].Err, cluster.ErrPartitionDown) {
		return res, fmt.Errorf("dead-partition probe: %v, want ErrPartitionDown", ds[0].Err)
	}
	if ds[1].Err != nil {
		return res, fmt.Errorf("healthy-partition probe refused: %v", ds[1].Err)
	}
	res.servedDown++
	led := router.Ledger()
	res.shed = led.ShedRefusals
	if res.shed == 0 {
		return res, fmt.Errorf("no requests were shed while backend 1 was down")
	}
	if !led.Backends[1].Down {
		return res, fmt.Errorf("ledger does not mark backend 1 down")
	}

	// Phase 3: restart from the same WAL directory and re-admit. The kill
	// fell between batches, so the replayed count must equal the router's
	// acknowledged count exactly.
	c2, err := spawnChild(spec)
	if err != nil {
		return res, err
	}
	childUp = c2
	res.recovered = c2.recovered
	if res.recovered != led.Backends[1].Acked {
		return res, fmt.Errorf("restarted child recovered %d operations, router acknowledged %d", res.recovered, led.Backends[1].Acked)
	}
	if err := router.Resync(ctx); err != nil {
		return res, fmt.Errorf("resync after restart: %w", err)
	}
	if row := router.Ledger().Backends[1]; row.Down || row.Journal != 0 {
		return res, fmt.Errorf("backend 1 not re-admitted after resync: %+v", row)
	}
	ds, err = router.SubmitBatch(ctx, []problem.Request{probeShed})
	if err != nil {
		return res, err
	}
	if ds[0].Err != nil {
		return res, fmt.Errorf("re-admitted partition still refusing: %v", ds[0].Err)
	}
	if err := router.Drain(ctx); err != nil {
		return res, err
	}
	if err := e19Reconcile(ctx, router, clients); err != nil {
		return res, err
	}
	st, err := clients[1].Stats(ctx)
	if err != nil {
		return res, err
	}
	res.digest = st.StateDigest

	// Shut the child down cleanly (SIGTERM snapshots on the way out) and
	// fsck its WAL: an offline read-only replay into a fresh backend must
	// land on the digest the live backend reported.
	childUp = nil
	if err := c2.stop(); err != nil {
		return res, fmt.Errorf("child shutdown after SIGTERM: %w", err)
	}
	digest, _, err := spec.fsck()
	if err != nil {
		return res, fmt.Errorf("fsck: %w", err)
	}
	if fsckDigest := fmt.Sprintf("%016x", digest); fsckDigest != res.digest {
		return res, fmt.Errorf("fsck digest %s, live backend reported %s", fsckDigest, res.digest)
	}
	return res, nil
}

func runE19(cfg Config) ([]*Table, error) {
	seed := cfg.Seed ^ 0xE19E19
	m := cfg.scaledInt(48, 18)
	ins, err := childInstance(seed, m)
	if err != nil {
		return nil, err
	}
	n := len(ins.Requests)
	if n < 12 {
		return nil, fmt.Errorf("E19: workload produced only %d requests", n)
	}
	ecfg := e19EngineConfig(seed)

	// Golden direct run: the sequential decision stream and digest the
	// routed path is held to.
	eng, err := engine.New(ins.Capacities, ecfg)
	if err != nil {
		return nil, err
	}
	golden, err := directLines(eng, ins.Requests)
	goldenDigest := eng.StateDigest()
	eng.Close()
	if err != nil {
		return nil, fmt.Errorf("E19: golden run: %w", err)
	}

	if err := e19Identity(ins, ecfg, golden, goldenDigest); err != nil {
		return nil, fmt.Errorf("E19 identity leg: %w", err)
	}

	// Throughput leg: the gate compares partition-local streams — the
	// tier's serving tax. A crossed stream measures protocol amplification
	// (2 ops per touched partition), so the 1-in-16 mix is reported below
	// but not gated. The gate reads process CPU per decision: the
	// backends, the router and the clients all run in this process, so it
	// counts the cluster's whole work and no other process's, and a loaded
	// host stretches wall time but not CPU time. It cannot see idle waits;
	// the wall-clock throughput rows still show those. Each attempt is a
	// pair, both sides back to back with the first side alternating, and
	// the gate takes the median of the pairs' ratios.
	thruReqs := e19ThroughputStream(m, seed, 0)
	singles := make([]float64, e19ThruPairs)
	clusters := make([]float64, e19ThruPairs)
	singleCPU := make([]float64, e19ThruPairs) // CPU µs per decision
	clusterCPU := make([]float64, e19ThruPairs)
	ratios := make([]float64, e19ThruPairs)
	for i := range ratios {
		for _, single := range []bool{i%2 == 0, i%2 != 0} {
			cpu := processCPU()
			r, err := e19Throughput(ins, ecfg, thruReqs, single)
			if err != nil {
				return nil, fmt.Errorf("E19 throughput (single node: %v): %w", single, err)
			}
			perDec := float64((processCPU() - cpu).Microseconds()) / float64(r.Decided)
			if single {
				singles[i], singleCPU[i] = r.Throughput, perDec
			} else {
				clusters[i], clusterCPU[i] = r.Throughput, perDec
			}
		}
		ratios[i] = clusterCPU[i] / singleCPU[i]
	}
	median := func(xs []float64) float64 {
		q, _ := stats.Quantile(xs, 0.5)
		return q
	}
	ratio, singleThru, clusterThru := median(ratios), median(singles), median(clusters)
	verdict := "PASS"
	if ratio > 2 {
		verdict = "FAIL"
		if cfg.Check {
			return nil, fmt.Errorf("E19: cluster-of-3 spends %.1f µs of process CPU per decision against single-node %.1f µs, median of %d paired ratios %.2f (gate: ≤2x)",
				median(clusterCPU), median(singleCPU), e19ThruPairs, ratio)
		}
	}
	mixed, err := e19Throughput(ins, ecfg, e19ThroughputStream(m, seed, 16), false)
	if err != nil {
		return nil, fmt.Errorf("E19 cross-mix throughput: %w", err)
	}

	fi, err := e19Fault(ins, ecfg, seed, m)
	if err != nil {
		return nil, fmt.Errorf("E19 fault-injection leg: %w", err)
	}

	t := &Table{
		ID:      "E19",
		Title:   "Cluster tier: routed identity, cluster-of-3 throughput, SIGKILL fault injection (DESIGN.md §14)",
		Columns: []string{"leg", "value", "check"},
	}
	t.AddRow("routed identity, conns=1, N=1", fmt.Sprintf("%d decisions", n), "line-identical to direct; digest equal; ledger exact")
	t.AddRow("single-node throughput", fmt.Sprintf("%.0f dec/s", singleThru), fmt.Sprintf("baseline: %.1f µs CPU/decision", median(singleCPU)))
	t.AddRow("cluster-of-3 throughput", fmt.Sprintf("%.0f dec/s", clusterThru), fmt.Sprintf("%.1f µs CPU/decision; median paired CPU ratio %.2fx ≤ 2x: %s", median(clusterCPU), ratio, verdict))
	t.AddRow("cluster-of-3, 1-in-16 cross mix", fmt.Sprintf("%.0f dec/s", mixed.Throughput), "informational: cross-shard costs 2 ops per touched partition")
	t.AddRow("SIGKILL: ops acked by victim", fmt.Sprint(fi.ackedPreKill), "kill between batches")
	t.AddRow("degraded: shed refusals", fmt.Sprint(fi.shed), "typed ErrPartitionDown, healthy partitions kept deciding")
	t.AddRow("degraded: decided", fmt.Sprint(fi.servedDown), "≥1 healthy-partition decision")
	t.AddRow("restart: WAL recovered", fmt.Sprint(fi.recovered), "== acked; decision-identical replay")
	t.AddRow("resync + fsck", "digest "+fi.digest, "ledger exact; offline replay digest equal")
	t.AddNote("topology: admission client → acrouter (consistent-hash, two-phase reserve/commit) → %d acserve backends over the binary wire protocol", e19ClusterSize)
	t.AddNote("identity leg rides the full routed HTTP path at conns=1 against a golden sequential run of the same seeded %d-edge engine", m)
	t.AddNote("gated throughput stream: %d partition-local single-edge offers (batch %d, conns=%d both sides) — the tier's serving tax; throughputs and CPU/decision (getrusage user+sys of this process, which runs every backend, the router and the clients) are medians of %d attempts a side, run in pairs with the first side alternating, and the gate is the median of the pairs' CPU ratios; the ungated cross-mix row adds a 1-in-16 cross-partition pair, whose two-phase protocol costs 2 ops per touched partition by design", len(thruReqs), e19Batch, e19ThruConns, e19ThruPairs)
	t.AddNote("fault leg: backend 1 is this binary re-executed as a durable cluster backend (WAL + snapshot), SIGKILLed mid-load and restarted")
	t.AddNote("acceptance: identity exact, CPU per decision ratio %.2fx ≤ 2x, recovered == acked, ledgers reconcile, digests equal — %s", ratio, verdict)
	return []*Table{t}, nil
}
