package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/opt"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/stats"
	"admission/internal/workload"
)

// --- E14: server loopback — serving-layer fidelity and throughput --------
//
// E14 validates the network-facing admission service (DESIGN.md §7): the
// same overloaded workload as E11 is decided three ways — directly against
// the sharded engine, and through acserve's HTTP batching pipeline over
// loopback with 1 and 4 client connections — and the measured competitive
// ratios are compared. With one connection the pipeline is FIFO end to
// end, so the decision stream (and hence the ratio) must match the direct
// engine line for line; the experiment errors out on the first
// divergence. With concurrent connections arrival order varies and the
// ratio may drift. Acceptance (see EXPERIMENTS.md §E14): the conns=1
// stream identical to direct, every loopback ratio within 2x of direct,
// and the conns=4 client accounting reconciled exactly with the engine's
// (accepted and decided counts).

func init() {
	registry = append(registry,
		Experiment{"E14", "Server loopback: serving-layer fidelity and throughput (§3 behind acserve)", runE14},
	)
}

func runE14(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Server loopback: serving-layer fidelity and throughput (acserve pipeline)",
		Columns: []string{"path", "throughput (dec/s)", "p99 batch (ms)", "ratio (mean ± ci95)", "vs direct"},
	}
	worst, err := runAdmissionLegs(cfg, t, []admissionLeg{
		{name: "direct"},
		{name: "loopback conns=1", conns: 1},
		{name: "loopback conns=4", conns: 4},
	}, 0xE14E14, 104729, true)
	if err != nil {
		return nil, err
	}
	verdict := "PASS"
	if worst > 2 {
		verdict = "FAIL"
	}
	t.AddNote("direct = sequential Submit against the same 4-shard engine; loopback = acserve HTTP batching pipeline on 127.0.0.1")
	t.AddNote("conns=1 is FIFO end to end: its decision stream was compared line by line (id, accepted, cross-shard, preempted) and is identical to direct; conns=4 reorders arrivals")
	t.AddNote("acceptance: loopback ratio within 2x of direct — worst observed %.2fx: %s; conns=4 client/engine decision accounting reconciled exactly", worst, verdict)
	t.AddNote(legsThroughputNote)
	return []*Table{t}, nil
}

// legsThroughputNote says why E14's and E16's throughput columns carry no
// claim.
const legsThroughputNote = "throughput is informational: each repetition decides one overloaded instance of a few hundred requests per leg (150–290 at full scale), and repetitions run concurrently, so the legs time each other's load"

// admissionLeg is one way E14 and E16 decide their workload.
type admissionLeg struct {
	name  string
	conns int // 0 = direct engine, no server
	wire  bool
}

// runAdmissionLegs decides one overloaded unit-cost workload per
// repetition every way legs lists, legs[0] being direct, each leg on a
// fresh identically seeded 4-shard engine; wsalt and asalt derive the
// workload and algorithm seeds from cfg.Seed and the repetition. It fails
// unless every one-connection leg's decision stream matches direct line
// for line and every multi-connection leg's client accounting reconciles
// exactly with its engine. It renders one row per leg into t — path,
// throughput, with p99 the mean p99 batch round trip, ratio, ratio vs
// direct — and returns the worst served ratio vs direct.
func runAdmissionLegs(cfg Config, t *Table, legs []admissionLeg, wsalt, asalt uint64, p99 bool) (float64, error) {
	m := cfg.scaledInt(64, 16)
	type point struct {
		ok               bool
		ratio, thru, p99 float64
	}
	// Results land in per-(leg, rep) slots and are folded into the
	// summaries in fixed order afterwards, so the rendered table is
	// bit-identical regardless of worker scheduling (Summary.Add is a
	// streaming-moment update and hence order-sensitive in the last bits).
	points := make([]point, len(legs)*cfg.reps())
	err := parallelEach(cfg.reps(), cfg.workers(), func(rep int) error {
		_, ins, err := genOverloadedGraph(m, 4, workload.CostUnit, rng.New(cfg.Seed^(uint64(rep+1)*wsalt)))
		if err != nil {
			return err
		}
		lower, err := opt.BestLowerBound(ins)
		if err != nil {
			return err
		}
		if lower <= 0 {
			return nil // feasible draw; ratio undefined, skip
		}
		acfg := core.UnweightedConfig()
		acfg.Seed = cfg.Seed ^ (uint64(rep+1) * asalt)
		var direct []server.DecisionJSON
		for li, leg := range legs {
			eng, err := engine.New(ins.Capacities, engine.Config{Shards: 4, Algorithm: acfg})
			if err != nil {
				return err
			}
			thru, p99, err := decideLeg(eng, ins.Requests, leg, &direct)
			if err != nil {
				return fmt.Errorf("%s: %s rep %d: %w", t.ID, leg.name, rep, err)
			}
			points[li*cfg.reps()+rep] = point{ok: true, ratio: eng.Snapshot().RejectedCost / lower, thru: thru,
				p99: float64(p99) / float64(time.Millisecond)}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	var base, worst float64
	for li, leg := range legs {
		var ratio, thru, lat stats.Summary
		for _, p := range points[li*cfg.reps() : (li+1)*cfg.reps()] {
			if p.ok {
				ratio.Add(p.ratio)
				thru.Add(p.thru)
				lat.Add(p.p99)
			}
		}
		if li == 0 {
			base = ratio.Mean()
		}
		rel := 0.0
		if base > 0 {
			rel = ratio.Mean() / base
		}
		row := []string{leg.name, fmt.Sprintf("%.0f", thru.Mean())}
		if p99 {
			cell := "—"
			if leg.conns > 0 {
				cell = fmt.Sprintf("%.1f", lat.Mean())
			}
			row = append(row, cell)
		}
		t.AddRow(append(row, ratioCell(&ratio), fmt.Sprintf("%.2f", rel))...)
		if leg.conns > 0 {
			worst = max(worst, rel)
		}
	}
	return worst, nil
}

// decideLeg decides reqs on eng the leg's way and closes eng, returning
// the throughput and, on a served leg, the p99 batch round trip. The
// direct leg stores its decision stream in *direct; a one-connection leg
// is diffed against it line by line; a multi-connection leg's client
// accounting must reconcile exactly with the engine's.
func decideLeg(eng *engine.Engine, reqs []problem.Request, leg admissionLeg, direct *[]server.DecisionJSON) (float64, time.Duration, error) {
	defer eng.Close()
	if leg.conns == 0 {
		start := time.Now()
		lines, err := directLines(eng, reqs)
		*direct = lines
		return float64(len(reqs)) / time.Since(start).Seconds(), 0, err
	}
	newClient := server.NewAdmissionClient
	if leg.wire {
		newClient = server.NewAdmissionWireClient
	}
	if leg.conns == 1 {
		elapsed, p99, err := serveStream(server.Admission(eng), newClient, reqs, *direct, sameAdmission)
		return float64(len(reqs)) / elapsed.Seconds(), p99, err
	}
	lb, err := serve(server.Config{}, server.Admission(eng))
	if err != nil {
		return 0, 0, err
	}
	report, err := server.RunLoad(context.Background(), newClient, server.LoadConfig[problem.Request]{
		BaseURL: lb.URL,
		Items:   reqs,
		Conns:   leg.conns,
		Batch:   64,
	})
	if err := errors.Join(err, lb.close()); err != nil {
		return 0, 0, err
	}
	eng.Close()
	if st := eng.Snapshot(); report.Decided != st.Requests || report.Accepted != st.Accepted {
		return 0, 0, fmt.Errorf("client saw %d decided/%d accepted, engine %d/%d",
			report.Decided, report.Accepted, st.Requests, st.Accepted)
	}
	return report.Throughput, report.LatencyP99, nil
}
