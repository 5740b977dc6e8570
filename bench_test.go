// Benchmarks: one per reproduction experiment E1–E15 and E18 (see DESIGN.md
// §4 and EXPERIMENTS.md; E16, E17, E19 and E20 run only under acbench and
// the harness tests), micro-benchmarks of the individual algorithms, and
// throughput benchmarks of the sharded concurrent engines (DESIGN.md §5 and
// §9) and the HTTP serving layer over loopback (DESIGN.md §7).
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
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"admission"
	"admission/internal/baseline"
	"admission/internal/cluster"
	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/graph"
	"admission/internal/harness"
	"admission/internal/lca"
	"admission/internal/lp"
	"admission/internal/ops"
	"admission/internal/opt"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/setcover"
	"admission/internal/trace"
	"admission/internal/wal"
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

// BenchmarkServerLoopback measures end-to-end throughput of the full
// serving stack — acload's load generator driving acserve's HTTP batching
// pipeline over a real loopback TCP listener — at 1 and 8 client
// connections. The decisions/s metric is the committed acceptance figure
// for the serving layer (target: ≥ 50k decisions/s at conns=8 on one
// machine); requests/op stays constant so ns/op is comparable across
// runs.
func BenchmarkServerLoopback(b *testing.B) {
	ins := benchInstance(b, false)
	for _, conns := range []int{1, 8} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			var thru float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				acfg := core.DefaultConfig()
				acfg.Seed = uint64(i)
				eng, err := engine.New(ins.Capacities, engine.Config{Shards: 4, Algorithm: acfg})
				if err != nil {
					b.Fatal(err)
				}
				srv, err := server.New(server.Config{}, server.Admission(eng))
				if err != nil {
					b.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				httpSrv := &http.Server{Handler: srv.Handler()}
				go func() { _ = httpSrv.Serve(ln) }()
				base := "http://" + ln.Addr().String()
				if err := server.NewAdmissionClient(base, 1).WaitHealthy(5 * time.Second); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				report, err := server.RunAdmissionLoad(context.Background(), server.LoadConfig[problem.Request]{
					BaseURL: base,
					Items:   ins.Requests,
					Conns:   conns,
					Batch:   256,
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if report.Decided != int64(len(ins.Requests)) || report.Errors != 0 {
					b.Fatalf("decided %d of %d, %d errors", report.Decided, len(ins.Requests), report.Errors)
				}
				thru = report.Throughput
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := srv.Drain(ctx); err != nil {
					b.Fatal(err)
				}
				cancel()
				_ = httpSrv.Close()
				eng.Close()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(thru, "decisions/s")
			b.ReportMetric(float64(len(ins.Requests)), "requests/op")
		})
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	admin := ops.NewAdminClient(base, token)
	if err := admin.WaitHealthy(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	defer func() {
		_ = httpSrv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
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

// wireBenchInstance builds the serving-bound workload for the codec
// benchmarks: 16k single-edge unit-cost requests over 64 edges behind a
// 4-shard engine. Every request takes the single-shard fast path and the
// unweighted algorithm decides it in well under a microsecond, so the
// engine sustains ≥ 1M decisions/s on this instance and the measured
// throughput is the serving layer's — codec, HTTP, and pipeline — not the
// admission algorithm's. (BenchmarkServerLoopback deliberately keeps the
// E14 multi-edge workload, where the algorithm dominates; that figure
// tracks the whole stack, this one isolates the hot path the §11 binary
// protocol exists to speed up.)
func wireBenchInstance() *problem.Instance {
	const edges, capacity, n = 64, 8, 16000
	ins := &problem.Instance{Capacities: make([]int, edges)}
	for i := range ins.Capacities {
		ins.Capacities[i] = capacity
	}
	ins.Requests = make([]problem.Request, n)
	for i := range ins.Requests {
		ins.Requests[i] = problem.Request{Edges: []int{i % edges}, Cost: 1}
	}
	return ins
}

// BenchmarkWireLoopback measures the serving hot path over both codecs on
// the serving-bound workload: the same server, load generator, batch size,
// and engine seed, with only the negotiated Content-Type differing. The
// decisions/s metric at codec=wire/conns=8 is the committed acceptance
// figure for the binary protocol (target: ≥ 5× the BENCH_5
// BenchmarkServerLoopback conns=8 figure, i.e. ≥ 565k decisions/s);
// codec=json on the identical workload isolates what the binary framing
// buys over NDJSON.
func BenchmarkWireLoopback(b *testing.B) {
	ins := wireBenchInstance()
	for _, codec := range []string{"json", "wire"} {
		for _, conns := range []int{1, 8} {
			b.Run(fmt.Sprintf("codec=%s/conns=%d", codec, conns), func(b *testing.B) {
				// Throughput is aggregated across every iteration (total
				// decisions over total load-generator wall time) rather
				// than reported from the last one: iterations run ~25ms
				// each, short enough that a single GC cycle or scheduler
				// hiccup would otherwise swing the committed figure.
				var decided int64
				var elapsed time.Duration
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					acfg := core.UnweightedConfig()
					acfg.Seed = uint64(i)
					eng, err := engine.New(ins.Capacities, engine.Config{Shards: 4, Algorithm: acfg})
					if err != nil {
						b.Fatal(err)
					}
					srv, err := server.New(server.Config{}, server.Admission(eng))
					if err != nil {
						b.Fatal(err)
					}
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					httpSrv := &http.Server{Handler: srv.Handler()}
					go func() { _ = httpSrv.Serve(ln) }()
					base := "http://" + ln.Addr().String()
					if err := server.NewAdmissionClient(base, 1).WaitHealthy(5 * time.Second); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					start := time.Now()
					report, err := server.RunAdmissionLoad(context.Background(), server.LoadConfig[problem.Request]{
						BaseURL: base,
						Items:   ins.Requests,
						Conns:   conns,
						Batch:   1024,
						Wire:    codec == "wire",
					})
					elapsed += time.Since(start)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if report.Decided != int64(len(ins.Requests)) || report.Errors != 0 {
						b.Fatalf("decided %d of %d, %d errors", report.Decided, len(ins.Requests), report.Errors)
					}
					decided += report.Decided
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					if err := srv.Drain(ctx); err != nil {
						b.Fatal(err)
					}
					cancel()
					_ = httpSrv.Close()
					eng.Close()
					b.StartTimer()
				}
				b.StopTimer()
				b.ReportMetric(float64(decided)/elapsed.Seconds(), "decisions/s")
				b.ReportMetric(float64(len(ins.Requests)), "requests/op")
			})
		}
	}
}

// BenchmarkWALLoopback measures what durability costs on the serving hot
// path: the BenchmarkWireLoopback conns=8 binary-codec run repeated with
// the decision WAL off and on (DESIGN.md §12). The wal=on run appends and
// group-commit-fsyncs every decision before its response frame is
// released, so the gap between the two decisions/s figures is the whole
// price of crash durability. The committed acceptance figure is wal=on ≥
// 50% of the BENCH_6 wire conns=8 throughput.
func BenchmarkWALLoopback(b *testing.B) {
	ins := wireBenchInstance()
	const conns = 8
	for _, durable := range []bool{false, true} {
		name := "wal=off"
		if durable {
			name = "wal=on"
		}
		b.Run(fmt.Sprintf("%s/conns=%d", name, conns), func(b *testing.B) {
			// Aggregate throughput across iterations, as in
			// BenchmarkWireLoopback.
			var decided int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				acfg := core.UnweightedConfig()
				acfg.Seed = uint64(i)
				eng, err := engine.New(ins.Capacities, engine.Config{Shards: 4, Algorithm: acfg})
				if err != nil {
					b.Fatal(err)
				}
				reg := server.Admission(eng)
				var log *wal.Log
				if durable {
					// A fresh directory per iteration: the engine seed
					// varies with i, so the fingerprints would not match.
					log, err = wal.Open(filepath.Join(b.TempDir(), strconv.Itoa(i)),
						wal.Options{Kind: wal.KindAdmission, Fingerprint: eng.Fingerprint()})
					if err != nil {
						b.Fatal(err)
					}
					reg = server.AdmissionDurable(eng, log, server.DurableOptions{})
				}
				srv, err := server.New(server.Config{}, reg)
				if err != nil {
					b.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				httpSrv := &http.Server{Handler: srv.Handler()}
				go func() { _ = httpSrv.Serve(ln) }()
				base := "http://" + ln.Addr().String()
				if err := server.NewAdmissionClient(base, 1).WaitHealthy(5 * time.Second); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				report, err := server.RunAdmissionLoad(context.Background(), server.LoadConfig[problem.Request]{
					BaseURL: base,
					Items:   ins.Requests,
					Conns:   conns,
					Batch:   1024,
					Wire:    true,
				})
				elapsed += time.Since(start)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if report.Decided != int64(len(ins.Requests)) || report.Errors != 0 {
					b.Fatalf("decided %d of %d, %d errors", report.Decided, len(ins.Requests), report.Errors)
				}
				decided += report.Decided
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := srv.Drain(ctx); err != nil {
					b.Fatal(err)
				}
				cancel()
				_ = httpSrv.Close()
				if log != nil {
					if log.DurableSeq() != int64(len(ins.Requests)) {
						b.Fatalf("durable seq %d, want %d", log.DurableSeq(), len(ins.Requests))
					}
					if err := log.Close(); err != nil {
						b.Fatal(err)
					}
				}
				eng.Close()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(decided)/elapsed.Seconds(), "decisions/s")
			b.ReportMetric(float64(len(ins.Requests)), "requests/op")
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

// BenchmarkCoverLoopback measures end-to-end throughput of the set cover
// serving stack — the cover load generator driving acserve's /v1/cover
// path over a real loopback TCP listener — at 1 and 8 client connections.
// The arrivals/s metric is the committed acceptance figure for the cover
// serving path (target: ≥ 20k element-arrivals/s on one machine).
func BenchmarkCoverLoopback(b *testing.B) {
	ins, arrivals := benchCoverWorkload(b)
	for _, conns := range []int{1, 8} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			var thru float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cov, err := coverengine.New(ins, coverengine.Config{Shards: 4, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				srv, err := server.New(server.Config{}, server.Cover(cov))
				if err != nil {
					b.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				httpSrv := &http.Server{Handler: srv.Handler()}
				go func() { _ = httpSrv.Serve(ln) }()
				base := "http://" + ln.Addr().String()
				if err := server.NewCoverClient(base, 1).WaitHealthy(5 * time.Second); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				report, err := server.RunCoverLoad(context.Background(), server.LoadConfig[int]{
					BaseURL: base,
					Items:   arrivals,
					Conns:   conns,
					Batch:   256,
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if report.Decided != int64(len(arrivals)) || report.Errors != 0 {
					b.Fatalf("decided %d of %d, %d errors", report.Decided, len(arrivals), report.Errors)
				}
				thru = report.Throughput
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := srv.Drain(ctx); err != nil {
					b.Fatal(err)
				}
				cancel()
				_ = httpSrv.Close()
				cov.Close()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(thru, "arrivals/s")
			b.ReportMetric(float64(len(arrivals)), "arrivals/op")
		})
	}
}

// BenchmarkQueryLoopback measures end-to-end throughput of the
// local-computation query tier (DESIGN.md §13) — the query load generator
// driving acserve's /v1/query path over a real loopback TCP listener with
// the binary codec — at several concurrent-query bounds. Exact queries
// share the engine's decided prefix and serialize on it, so the worker
// sweep is informational: each iteration's fresh engine simulates every
// arrival once, whatever the bound. Eight client connections keep the
// HTTP side saturated at every worker count.
func BenchmarkQueryLoopback(b *testing.B) {
	src := lca.Source{Workload: "random", Model: workload.CostUniform, Capacity: 4, N: 512, Seed: 7}
	qs := make([]lca.Query, src.N)
	for i := range qs {
		qs[i] = lca.Query{Pos: i}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// Aggregate throughput across iterations, as in
			// BenchmarkWireLoopback.
			var decided int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				acfg := core.DefaultConfig()
				acfg.Seed = 1
				qeng, err := lca.New(lca.Config{Source: src, Algorithm: acfg, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				srv, err := server.New(server.Config{}, server.Query(qeng))
				if err != nil {
					b.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				httpSrv := &http.Server{Handler: srv.Handler()}
				go func() { _ = httpSrv.Serve(ln) }()
				base := "http://" + ln.Addr().String()
				if err := server.NewQueryClient(base, 1).WaitHealthy(5 * time.Second); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				report, err := server.RunQueryLoad(context.Background(), server.LoadConfig[lca.Query]{
					BaseURL: base,
					Items:   qs,
					Conns:   8,
					Batch:   128,
					Wire:    true,
				})
				elapsed += time.Since(start)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if report.Decided != int64(len(qs)) || report.Errors != 0 {
					b.Fatalf("decided %d of %d, %d errors", report.Decided, len(qs), report.Errors)
				}
				decided += report.Decided
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := srv.Drain(ctx); err != nil {
					b.Fatal(err)
				}
				cancel()
				_ = httpSrv.Close()
				qeng.Close()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(decided)/elapsed.Seconds(), "queries/s")
			b.ReportMetric(float64(len(qs)), "requests/op")
		})
	}
}

// BenchmarkClusterLoopback measures the cluster tier end to end on the
// routing-bound workload: an admission load stream of single-edge offers
// (with a 1-in-16 cross-partition pair mix) through the acrouter path —
// load client → router HTTP server → consistent-hash router → cluster RPC
// → backends — against the same stream into a plain single-node acserve.
// backends=1 prices the pure protocol overhead of the extra tier;
// backends=3 adds partitioned fan-out and two-phase settles. The
// decisions/s metric at backends=3 is the committed BENCH_9 figure, held
// by E19 to within 2x of the single-node path on the same machine.
func BenchmarkClusterLoopback(b *testing.B) {
	const m, capacity = 48, 4
	caps := make([]int, m)
	for e := range caps {
		caps[e] = capacity
	}
	r := rng.New(9)
	reqs := make([]problem.Request, 4096)
	for i := range reqs {
		e := r.Intn(m)
		reqs[i] = problem.Request{Edges: []int{e}, Cost: 1}
		if i%16 == 15 {
			reqs[i].Edges = []int{e, (e + 1 + r.Intn(m-1)) % m}
		}
	}
	ecfg := func() engine.Config {
		acfg := core.UnweightedConfig()
		acfg.Seed = 9
		return engine.Config{Shards: 2, Algorithm: acfg}
	}

	serve := func(b *testing.B, reg server.Registration) (string, func()) {
		srv, err := server.New(server.Config{}, reg)
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		return "http://" + ln.Addr().String(), func() { _ = httpSrv.Close() }
	}

	for _, backends := range []int{0, 1, 3} {
		name := fmt.Sprintf("backends=%d", backends)
		if backends == 0 {
			name = "single-node"
		}
		b.Run(name, func(b *testing.B) {
			var decided int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var base string
				var cleanup []func()
				if backends == 0 {
					eng, err := engine.New(caps, ecfg())
					if err != nil {
						b.Fatal(err)
					}
					url, stop := serve(b, server.Admission(eng))
					base = url
					cleanup = append(cleanup, stop, func() { eng.Close() })
				} else {
					ring, err := cluster.NewRing(m, backends, 0)
					if err != nil {
						b.Fatal(err)
					}
					clients := make([]*cluster.Client, backends)
					for bi := 0; bi < backends; bi++ {
						bcaps, err := ring.Caps(caps, bi)
						if err != nil {
							b.Fatal(err)
						}
						be, err := cluster.NewBackend(bcaps, cluster.BackendConfig{Engine: ecfg()})
						if err != nil {
							b.Fatal(err)
						}
						url, stop := serve(b, server.ClusterBackend(be))
						clients[bi] = cluster.NewClient(url, cluster.RetryPolicy{MaxAttempts: 2})
						cleanup = append(cleanup, stop, func() { be.Close() })
					}
					router, err := cluster.NewRouter(caps, clients,
						cluster.RouterConfig{Backend: cluster.BackendConfig{Engine: ecfg()}, ResyncEvery: time.Hour})
					if err != nil {
						b.Fatal(err)
					}
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					if err := router.WaitReady(ctx); err != nil {
						b.Fatal(err)
					}
					cancel()
					url, stop := serve(b, server.RouterAdmission(router))
					base = url
					cleanup = append(cleanup, stop, func() { _ = router.Close() })
				}
				b.StartTimer()
				start := time.Now()
				report, err := server.RunAdmissionLoad(context.Background(), server.LoadConfig[problem.Request]{
					BaseURL: base,
					Items:   reqs,
					Conns:   4,
					Batch:   256,
				})
				elapsed += time.Since(start)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if report.Decided != int64(len(reqs)) || report.Errors != 0 {
					b.Fatalf("decided %d of %d, %d errors", report.Decided, len(reqs), report.Errors)
				}
				decided += report.Decided
				for j := len(cleanup) - 1; j >= 0; j-- {
					cleanup[j]()
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(decided)/elapsed.Seconds(), "decisions/s")
			b.ReportMetric(float64(len(reqs)), "requests/op")
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
