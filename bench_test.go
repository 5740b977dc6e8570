// Benchmarks: one per reproduction experiment E1–E15 and E18 (see DESIGN.md
// §4 and EXPERIMENTS.md; E16, E17, E19 and E20 run only under acbench and
// the harness tests), micro-benchmarks of the individual algorithms and
// offline optima, throughput of the two sharded engines fed directly
// (DESIGN.md §5 and §9), the admin plane's resize round trip (DESIGN.md
// §15), and the replay audit.
//
// The served paths (HTTP pipeline, both codecs, the WAL, the query tier and
// the router hop) are measured by the bench module instead: `bash
// bench/run.sh` reports medians and quartiles over seeded sessions together
// with the host they ran on (bench/README.md), and E14–E20 gate them.
//
// The experiment benchmarks execute the same code paths as `acbench -exp
// <id>` at a reduced scale so `go test -bench=.` terminates in minutes; the
// full-scale tables in EXPERIMENTS.md are produced by cmd/acbench. Each
// experiment benchmark reports the headline measured quantity (mean
// competitive ratio of the last sweep point) as a custom metric, so the
// paper-vs-measured comparison is visible directly in benchmark output.
package admission_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"admission"
	"admission/internal/baseline"
	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/graph"
	"admission/internal/harness"
	"admission/internal/lp"
	"admission/internal/ops"
	"admission/internal/opt"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/setcover"
	"admission/internal/trace"
	"admission/internal/workload"
)

// benchConfig is the reduced-scale configuration used by the experiment
// benchmarks.
func benchConfig() harness.Config {
	return harness.Config{Seed: 2025, Reps: 2, Scale: 0.5, Check: false}
}

// lastRatio extracts the mean ratio of a table's last row (the largest
// sweep point), parsing the "x ± y" cell format.
func lastRatio(t *harness.Table, col int) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	cell := t.Rows[len(t.Rows)-1][col]
	fields := strings.Fields(cell)
	if len(fields) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return v
}

// runExperimentBench runs one experiment per iteration and reports the
// headline ratio metric.
func runExperimentBench(b *testing.B, id string, ratioCol int) {
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if ratioCol >= 0 {
			ratio = lastRatio(tables[0], ratioCol)
		}
	}
	if ratioCol >= 0 {
		b.ReportMetric(ratio, "ratio")
	}
}

func BenchmarkE1Fractional(b *testing.B)           { runExperimentBench(b, "E1", 3) }
func BenchmarkE2RandomizedWeighted(b *testing.B)   { runExperimentBench(b, "E2", 3) }
func BenchmarkE3RandomizedUnweighted(b *testing.B) { runExperimentBench(b, "E3", 3) }
func BenchmarkE4Reduction(b *testing.B)            { runExperimentBench(b, "E4", 3) }
func BenchmarkE5Bicriteria(b *testing.B)           { runExperimentBench(b, "E5", 3) }
func BenchmarkE6Baselines(b *testing.B)            { runExperimentBench(b, "E6", -1) }
func BenchmarkE7ZeroOPT(b *testing.B)              { runExperimentBench(b, "E7", -1) }
func BenchmarkE8ConstantsAblation(b *testing.B)    { runExperimentBench(b, "E8", -1) }
func BenchmarkE9AlphaDoubling(b *testing.B)        { runExperimentBench(b, "E9", -1) }
func BenchmarkE10PreemptionNecessity(b *testing.B) { runExperimentBench(b, "E10", -1) }
func BenchmarkE11ShardedEngine(b *testing.B)       { runExperimentBench(b, "E11", 3) }
func BenchmarkE12Topologies(b *testing.B)          { runExperimentBench(b, "E12", -1) }
func BenchmarkE13SetCoverHeadToHead(b *testing.B)  { runExperimentBench(b, "E13", -1) }
func BenchmarkE14ServerLoopback(b *testing.B)      { runExperimentBench(b, "E14", 3) }
func BenchmarkE15CoverLoopback(b *testing.B)       { runExperimentBench(b, "E15", 2) }
func BenchmarkE18QueryTier(b *testing.B)           { runExperimentBench(b, "E18", -1) }

// --- micro-benchmarks: algorithm throughput -------------------------------

// benchInstance builds a reusable overloaded instance for throughput
// benchmarks.
func benchInstance(b *testing.B, unit bool) *problem.Instance {
	b.Helper()
	r := rng.New(7)
	g, err := graph.Random(16, 64, 8, r)
	if err != nil {
		b.Fatal(err)
	}
	model := workload.CostUniform
	if unit {
		model = workload.CostUnit
	}
	ins, err := workload.RandomTraffic(g, 2000, model, 0, r)
	if err != nil {
		b.Fatal(err)
	}
	return ins
}

// BenchmarkRandomizedOfferWeighted measures the steady-state cost of a single
// Offer against a long-lived algorithm instance: one op is one arrival, so
// ns/op and allocs/op are per-request figures. The request pool cycles, which
// keeps the instance overloaded indefinitely. Request pruning is disabled so
// the 4mc² safeguard cannot poison the hot path into a trivial reject-all
// loop as b.N grows.
func BenchmarkRandomizedOfferWeighted(b *testing.B) {
	ins := benchInstance(b, false)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.DisableReqPruning = true
	alg, err := core.NewRandomized(ins.Capacities, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Offer(i, ins.Requests[i%len(ins.Requests)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomizedOfferUnweighted is the unweighted steady-state
// counterpart of BenchmarkRandomizedOfferWeighted.
func BenchmarkRandomizedOfferUnweighted(b *testing.B) {
	ins := benchInstance(b, true)
	cfg := core.UnweightedConfig()
	cfg.Seed = 1
	alg, err := core.NewRandomized(ins.Capacities, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Offer(i, ins.Requests[i%len(ins.Requests)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFractionalOffer(b *testing.B) {
	ins := benchInstance(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frac, err := core.NewFractional(ins.Capacities, core.UnweightedConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range ins.Requests {
			if _, err := frac.Offer(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(ins.Requests)), "requests/op")
}

func BenchmarkGreedyOffer(b *testing.B) {
	ins := benchInstance(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg, err := baseline.NewGreedy(ins.Capacities)
		if err != nil {
			b.Fatal(err)
		}
		for id, r := range ins.Requests {
			if _, err := alg.Offer(id, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(ins.Requests)), "requests/op")
}

func BenchmarkPreemptCheapestOffer(b *testing.B) {
	ins := benchInstance(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg, err := baseline.NewPreemptive(ins.Capacities, baseline.VictimCheapest, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for id, r := range ins.Requests {
			if _, err := alg.Offer(id, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(ins.Requests)), "requests/op")
}

func BenchmarkTraceRunnerOverhead(b *testing.B) {
	ins := benchInstance(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.UnweightedConfig()
		cfg.Seed = uint64(i)
		alg, err := core.NewRandomized(ins.Capacities, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Run(alg, ins, trace.Options{Check: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBicriteriaArrive(b *testing.B) {
	r := rng.New(11)
	sys, err := setcover.RandomInstance(64, 128, 0.1, 4, false, r)
	if err != nil {
		b.Fatal(err)
	}
	arrivals, err := setcover.RandomArrivals(sys, 128, 1.0, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := setcover.NewBicriteria(sys, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bc.Run(arrivals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(arrivals)), "arrivals/op")
}

func BenchmarkSetCoverReduction(b *testing.B) {
	r := rng.New(13)
	sys, err := setcover.RandomInstance(48, 96, 0.1, 4, false, r)
	if err != nil {
		b.Fatal(err)
	}
	arrivals, err := setcover.RandomArrivals(sys, 96, 1.0, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := setcover.SolveByReduction(sys, arrivals, setcover.ReductionConfig{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(arrivals)), "arrivals/op")
}

func BenchmarkLPFractionalOPT(b *testing.B) {
	ins := benchInstance(b, false)
	small := &problem.Instance{Capacities: ins.Capacities, Requests: ins.Requests[:400]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.FractionalOPT(small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactOPTSmall(b *testing.B) {
	r := rng.New(17)
	ins, err := workload.BlockOverload(4, 2, 6, workload.CostUniform, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.ExactOPT(ins, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexCovering(b *testing.B) {
	r := rng.New(19)
	c := &lp.CoveringLP{Cost: make([]float64, 300)}
	for i := range c.Cost {
		c.Cost[i] = 1 + r.Float64()*99
	}
	for k := 0; k < 60; k++ {
		row := make([]int, 0, 15)
		for len(row) < 15 {
			row = append(row, r.Intn(300))
		}
		c.Rows = append(c.Rows, row)
		c.Demand = append(c.Demand, float64(1+r.Intn(8)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.SolveCovering(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alg, err := admission.NewRandomized([]int{4, 4, 4}, admission.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := alg.Offer(0, admission.Request{Edges: []int{0, 1}, Cost: 2.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scaling micro-benchmarks: per-arrival cost as m and c grow ----------

func BenchmarkRandomizedScalingM(b *testing.B) {
	for _, m := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			r := rng.New(uint64(m))
			nv := m / 4
			if nv < 4 {
				nv = 4
			}
			g, err := graph.Random(nv, m, 8, r)
			if err != nil {
				b.Fatal(err)
			}
			ins, err := workload.RandomTraffic(g, 1000, workload.CostUnit, 0, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := core.UnweightedConfig()
				cfg.Seed = uint64(i)
				alg, err := core.NewRandomized(ins.Capacities, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for id, req := range ins.Requests {
					if _, err := alg.Offer(id, req); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(ins.Requests)), "requests/op")
		})
	}
}

func BenchmarkRandomizedScalingC(b *testing.B) {
	for _, c := range []int{2, 16, 128} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			r := rng.New(uint64(c))
			ins, err := workload.SingleEdgeOverload(c, 4*c, workload.CostUnit, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := core.UnweightedConfig()
				cfg.Seed = uint64(i)
				alg, err := core.NewRandomized(ins.Capacities, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for id, req := range ins.Requests {
					if _, err := alg.Offer(id, req); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(ins.Requests)), "requests/op")
		})
	}
}

func BenchmarkBicriteriaScalingN(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n))
			sys, err := setcover.RandomInstance(n, 2*n, 8.0/float64(n), 3, false, r)
			if err != nil {
				b.Fatal(err)
			}
			arrivals, err := setcover.RandomArrivals(sys, n, 1.0, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc, err := setcover.NewBicriteria(sys, 0.25)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bc.Run(arrivals); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(arrivals)), "arrivals/op")
		})
	}
}

// --- engine throughput: scaling with shards and submitters ---------------

// BenchmarkEngineThroughput measures end-to-end Submit throughput of the
// sharded engine across shard counts and concurrent submitter counts on the
// standard overloaded workload. requests/op stays constant; compare ns/op
// across the grid to see the scaling. The shards=1/workers=1 cell is the
// channel-hop overhead over BenchmarkRandomizedOfferWeighted.
func BenchmarkEngineThroughput(b *testing.B) {
	ins := benchInstance(b, false)
	parts := func(k int) [][]int {
		p, err := admission.PartitionEdges(len(ins.Capacities), k)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				partition := parts(shards)
				for i := 0; i < b.N; i++ {
					acfg := core.DefaultConfig()
					acfg.Seed = uint64(i)
					eng, err := engine.New(ins.Capacities, engine.Config{
						Partition: partition, Algorithm: acfg,
					})
					if err != nil {
						b.Fatal(err)
					}
					var wg sync.WaitGroup
					reqCh := make(chan problem.Request)
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							// Drain even after an error so the feeder
							// cannot block on an abandoned channel.
							for r := range reqCh {
								if b.Failed() {
									continue
								}
								if _, err := eng.Submit(context.Background(), r); err != nil {
									b.Error(err)
								}
							}
						}()
					}
					for _, r := range ins.Requests {
						reqCh <- r
					}
					close(reqCh)
					wg.Wait()
					eng.Close()
				}
				b.ReportMetric(float64(len(ins.Requests)), "requests/op")
			})
		}
	}
}

// BenchmarkAdminResize measures the live-operations control plane's
// capacity-resize round trip (DESIGN.md §15) over loopback HTTP: each op
// is one grow plus one shrink-back through POST /admin/v1/capacity, so
// engine state is identical at every iteration boundary. The single-edge
// case serializes through one shard's event loop; the all-edges case fans
// out across every shard in parallel. The engine carries live load so the
// resize competes with the decision path's occupancy bookkeeping.
func BenchmarkAdminResize(b *testing.B) {
	ins := benchInstance(b, false)
	const token = "bench-admin-token"
	acfg := core.DefaultConfig()
	acfg.Seed = 1
	eng, err := engine.New(ins.Capacities, engine.Config{Shards: 4, Algorithm: acfg})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{AdminToken: token}, server.Admission(eng))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	admin := ops.NewAdminClient(ts.URL, token)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		ts.Close()
		eng.Close()
	}()
	// Load the engine so resizes run against live occupancy, not an idle
	// covering program.
	ctx := context.Background()
	for _, r := range ins.Requests[:1024] {
		if _, err := eng.Submit(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
	for _, scope := range []struct {
		name string
		edge int
	}{{"edge", 0}, {"all-edges", engine.AllEdges}} {
		b.Run(scope.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := admin.Resize(ctx, scope.edge, 1); err != nil {
					b.Fatal(err)
				}
				if _, err := admin.Resize(ctx, scope.edge, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCoverWorkload builds a reusable large set-cover workload for the
// cover throughput benchmarks: a sparse 256-element/512-set system whose
// aggregate degree budget comfortably exceeds the 8000-arrival sequence.
func benchCoverWorkload(b *testing.B) (*setcover.Instance, []int) {
	b.Helper()
	r := rng.New(77)
	ins, err := setcover.RandomInstance(256, 512, 0.08, 3, false, r)
	if err != nil {
		b.Fatal(err)
	}
	arrivals, err := setcover.RandomArrivals(ins, 8000, 1.0, r)
	if err != nil {
		b.Fatal(err)
	}
	return ins, arrivals
}

// BenchmarkCoverEngineThroughput measures the sharded cover engine's direct
// SubmitBatch throughput (no HTTP) across shard counts.
func BenchmarkCoverEngineThroughput(b *testing.B) {
	ins, arrivals := benchCoverWorkload(b)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cov, err := coverengine.New(ins, coverengine.Config{Shards: shards, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				ds, err := cov.SubmitBatch(context.Background(), arrivals)
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range ds {
					if d.Err != nil {
						b.Fatalf("arrival refused: %v", d.Err)
					}
				}
				cov.Close()
			}
			b.ReportMetric(float64(len(arrivals)), "arrivals/op")
		})
	}
}

func BenchmarkReplayAudit(b *testing.B) {
	ins := benchInstance(b, true)
	cfg := core.UnweightedConfig()
	cfg.Seed = 1
	alg, err := core.NewRandomized(ins.Capacities, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := trace.Run(alg, ins, trace.Options{Record: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Replay(ins, res.Events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Events)), "events/op")
}
