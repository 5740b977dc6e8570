// Command acsim runs one admission-control simulation and prints the
// decision trace and a summary with offline-optimum comparison.
//
// The instance comes either from a JSON file produced by acgen
// (-in instance.json) or from a built-in workload:
//
//	acsim -workload single-edge -cap 4 -n 20 -alg randomized -costs unit
//	acsim -workload grid -n 100 -alg greedy -costs pareto -trace
//	acsim -in instance.json -alg preempt-cheapest
//
// Algorithms: randomized, fractional (reports fractional cost only),
// greedy, preempt-cheapest, preempt-newest, preempt-oldest, preempt-random,
// det-threshold.
//
// The -engine mode serves the instance through the sharded concurrent
// engine (DESIGN.md §5) instead of a single sequential algorithm:
//
//	acsim -engine -shards 4 -workers 8 -workload grid -n 2000 -costs unit
//
// It reports the same summary plus engine-specific counters (cross-shard
// traffic, shard count) and submission throughput.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"admission/internal/baseline"
	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/opt"
	"admission/internal/problem"
	"admission/internal/trace"
	"admission/internal/workload"
)

func main() {
	var (
		inFile    = flag.String("in", "", "JSON instance file (overrides -workload)")
		wl        = flag.String("workload", "single-edge", "built-in workload (see -h of acgen for the list)")
		algName   = flag.String("alg", "randomized", "algorithm to run")
		costs     = flag.String("costs", "unit", "cost model: unit | uniform | pareto")
		capacity  = flag.Int("cap", 4, "edge capacity for built-in workloads")
		n         = flag.Int("n", 32, "request count for built-in workloads")
		seed      = flag.Uint64("seed", 1, "random seed")
		showTrace = flag.Bool("trace", false, "print the full decision trace")
		record    = flag.String("record", "", "write an auditable RecordedRun JSON artifact to this file")
		noCheck   = flag.Bool("nocheck", false, "disable the feasibility verifier")
		engMode   = flag.Bool("engine", false, "serve through the sharded concurrent engine")
		shards    = flag.Int("shards", 1, "engine mode: number of edge shards")
		workers   = flag.Int("workers", 1, "engine mode: concurrent submitting goroutines")
	)
	flag.Parse()

	ins, err := loadInstance(*inFile, *wl, *costs, *capacity, *n, *seed)
	if err != nil {
		fail(err)
	}
	if err := ins.Validate(); err != nil {
		fail(err)
	}

	cfg := core.SeededConfig(ins.Unweighted(), *seed)
	if *engMode {
		runEngine(ins, *shards, *workers, cfg, !*noCheck)
		return
	}

	if *algName == "fractional" {
		runFractional(ins, cfg)
		return
	}

	alg, err := buildAlgorithm(*algName, ins, cfg)
	if err != nil {
		fail(err)
	}
	res, err := trace.Run(alg, ins, trace.Options{Check: !*noCheck, Record: *showTrace || *record != ""})
	if err != nil {
		fail(err)
	}
	if *record != "" {
		rr := trace.NewRecordedRun(alg.Name(), ins, res)
		f, err := os.Create(*record)
		if err != nil {
			fail(err)
		}
		if err := rr.Save(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "acsim: recorded run written to %s (audit with acreplay)\n", *record)
	}

	if *showTrace {
		for _, ev := range res.Events {
			fmt.Printf("step %4d  %-8s request %d (cost %g)\n", ev.Step, ev.Kind, ev.Request, ev.Cost)
		}
	}
	fmt.Printf("algorithm:      %s\n", alg.Name())
	fmt.Printf("requests:       %d (m=%d edges, c=%d max capacity)\n", ins.N(), ins.M(), ins.MaxCapacity())
	fmt.Printf("accepted:       %d\n", len(res.Accepted))
	fmt.Printf("rejected:       %d (%d by preemption)\n", len(res.Rejected), res.Preemptions)
	fmt.Printf("rejected cost:  %g\n", res.RejectedCost)

	lb, err := opt.BestLowerBound(ins)
	if err != nil {
		fail(err)
	}
	fmt.Printf("OPT lower bnd:  %g (LP relaxation%s)\n", lb, qNote(ins))
	if ex, err := opt.ExactOPT(ins, 1<<20); err == nil && ex.Proven {
		fmt.Printf("OPT exact:      %g\n", ex.Value)
		if ex.Value > 0 {
			fmt.Printf("ratio:          %.3f\n", res.RejectedCost/ex.Value)
		}
	} else if lb > 0 {
		fmt.Printf("ratio (vs LB):  %.3f\n", res.RejectedCost/lb)
	}
}

func qNote(ins *problem.Instance) string {
	if ins.Unweighted() {
		return fmt.Sprintf(", Q=%d", ins.MaxExcess())
	}
	return ""
}

func loadInstance(inFile, wl, costs string, capacity, n int, seed uint64) (*problem.Instance, error) {
	if inFile != "" {
		data, err := os.ReadFile(inFile)
		if err != nil {
			return nil, err
		}
		var ins problem.Instance
		if err := json.Unmarshal(data, &ins); err != nil {
			return nil, fmt.Errorf("acsim: parsing %s: %w", inFile, err)
		}
		return &ins, nil
	}
	model, err := workload.ParseCostModel(costs)
	if err != nil {
		return nil, err
	}
	return workload.BuildNamed(wl, model, capacity, n, seed)
}

func buildAlgorithm(name string, ins *problem.Instance, cfg core.Config) (problem.Algorithm, error) {
	caps, seed := ins.Capacities, cfg.Seed
	switch name {
	case "randomized":
		return core.NewRandomized(caps, cfg)
	case "greedy":
		return baseline.NewGreedy(caps)
	case "preempt-cheapest":
		return baseline.NewPreemptive(caps, baseline.VictimCheapest, seed)
	case "preempt-newest":
		return baseline.NewPreemptive(caps, baseline.VictimNewest, seed)
	case "preempt-oldest":
		return baseline.NewPreemptive(caps, baseline.VictimOldest, seed)
	case "preempt-random":
		return baseline.NewPreemptive(caps, baseline.VictimRandom, seed)
	case "det-threshold":
		return baseline.NewDetThreshold(caps, cfg, 0.5)
	default:
		return nil, fmt.Errorf("acsim: unknown algorithm %q", name)
	}
}

// runEngine serves the instance through the sharded engine with the given
// number of concurrent submitters and prints summary, engine counters, and
// throughput. With workers=1 the submission order (and, at shards=1, every
// decision) matches the sequential -alg randomized run for the same seed.
func runEngine(ins *problem.Instance, shards, workers int, cfg core.Config, check bool) {
	if workers < 1 {
		workers = 1
	}
	eng, err := engine.New(ins.Capacities, engine.Config{Shards: shards, Algorithm: cfg})
	if err != nil {
		fail(err)
	}

	start := time.Now()
	if workers == 1 {
		for _, r := range ins.Requests {
			if _, err := eng.Submit(context.Background(), r); err != nil {
				fail(err)
			}
		}
	} else {
		var (
			wg     sync.WaitGroup
			failed atomic.Bool
		)
		reqCh := make(chan problem.Request)
		errCh := make(chan error, 1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Keep draining after a failure so the feeder never blocks
				// on a channel nobody reads.
				for r := range reqCh {
					if failed.Load() {
						continue
					}
					if _, err := eng.Submit(context.Background(), r); err != nil {
						failed.Store(true)
						select {
						case errCh <- err:
						default:
						}
					}
				}
			}()
		}
		for _, r := range ins.Requests {
			reqCh <- r
		}
		close(reqCh)
		wg.Wait()
		select {
		case err := <-errCh:
			fail(err)
		default:
		}
	}
	elapsed := time.Since(start)
	eng.Close()
	st := eng.Snapshot()

	if check {
		for e, load := range st.Loads {
			if load > ins.Capacities[e] {
				fail(fmt.Errorf("acsim: edge %d over capacity: load %d > %d", e, load, ins.Capacities[e]))
			}
		}
	}

	fmt.Printf("engine:         %d shards, %d workers\n", eng.Shards(), workers)
	fmt.Printf("requests:       %d (m=%d edges, c=%d max capacity)\n", ins.N(), ins.M(), ins.MaxCapacity())
	fmt.Printf("accepted:       %d\n", st.Accepted)
	fmt.Printf("rejected:       %d decisions (%d preemptions)\n", st.Requests-st.Accepted, st.Preemptions)
	fmt.Printf("cross-shard:    %d submitted, %d accepted\n", st.CrossShard, st.CrossShardAccepted)
	fmt.Printf("rejected cost:  %g\n", st.RejectedCost)
	fmt.Printf("throughput:     %.0f requests/s (%.2fms total)\n",
		float64(ins.N())/elapsed.Seconds(), float64(elapsed.Microseconds())/1000)

	lb, err := opt.BestLowerBound(ins)
	if err != nil {
		fail(err)
	}
	fmt.Printf("OPT lower bnd:  %g (LP relaxation%s)\n", lb, qNote(ins))
	if lb > 0 {
		fmt.Printf("ratio (vs LB):  %.3f\n", st.RejectedCost/lb)
	}
}

func runFractional(ins *problem.Instance, cfg core.Config) {
	frac, err := core.NewFractional(ins.Capacities, cfg)
	if err != nil {
		fail(err)
	}
	for _, r := range ins.Requests {
		if _, err := frac.Offer(r); err != nil {
			fail(err)
		}
	}
	fmt.Printf("algorithm:      fractional (§2)\n")
	fmt.Printf("requests:       %d\n", ins.N())
	fmt.Printf("fractional cost: %g\n", frac.Cost())
	fmt.Printf("augmentations:  %d\n", frac.Augmentations())
	fmt.Printf("alpha phases:   %d (final α=%g)\n", frac.Phases(), frac.Alpha())
	if lb, err := opt.FractionalOPT(ins); err == nil {
		fmt.Printf("fractional OPT: %g\n", lb)
		if lb > 0 {
			fmt.Printf("ratio:          %.3f\n", frac.Cost()/lb)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acsim:", err)
	os.Exit(1)
}
