package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/graph"
	"admission/internal/lca"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/setcover"
	"admission/internal/wal"
	"admission/internal/workload"
)

// shape fixes a workload's sizes, chosen once, at the commit that defined
// the benchmark, and never re-derived per run. items is a multiple of
// batch: a short last submission would wait out the pipeline's flush
// timer in every session. rate is about a third of the closed-loop
// throughput that commit measured on a 2-CPU host: at half of it, a slower
// spell of the shared host raised latency through queueing far more than
// it slowed the system.
type shape struct {
	items int     // items per session stream
	batch int     // items per submission, in every phase
	rate  float64 // open-loop offered load, items/s
}

// spec is one workload of the benchmark. Why each was chosen is recorded
// in BENCHMARK.json and README.md.
type spec struct {
	name string
	shape
	build func(seed uint64, sh shape, walRoot string) (kit, error)
}

// streamsPerRun is how many distinct seeded session streams a run draws;
// sessions cycle through them, and the check session takes stream 0.
const streamsPerRun = 8

// Every measured session runs 4 engine shards (2 workers for lca queries)
// behind 2 client connections, matching the 2 CPUs of the reference host.
const (
	shards  = 4
	conns   = 2
	workers = 2
)

var workloads = []spec{
	{name: "admit-wire", shape: shape{items: 16384, batch: 1024, rate: 230000}, build: buildAdmitWire},
	{name: "admit-durable", shape: shape{items: 16384, batch: 1024, rate: 180000}, build: buildAdmitDurable},
	{name: "admit-paths", shape: shape{items: 8192, batch: 256, rate: 44000}, build: buildAdmitPaths},
	{name: "cover", shape: shape{items: 4096, batch: 256, rate: 175000}, build: buildCover},
	{name: "query-exact", shape: shape{items: 256, batch: 1, rate: 80}, build: buildQuery},
}

// lookup returns the named workload.
func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// Each workload's instance — capacities, graph, set system, query source
// — is the same in every run; the run seed draws only the traffic and the
// algorithm's coins. A seed-drawn instance made the per-item cost itself a
// random variable: query-exact's throughput moved by 30% between seeds.
const instanceSeed = 2025

// subSeed derives an independent seed for one use of the run seed.
func subSeed(seed uint64, use uint64) uint64 {
	return rng.New(seed ^ use*0x9E3779B97F4A7C15).Uint64()
}

// streamRNG seeds session stream i of a run.
func streamRNG(seed uint64, i int) *rng.RNG { return rng.New(subSeed(seed, uint64(100+i))) }

// wireStreams draws single-edge unit-cost requests on seeded edges.
func wireStreams(seed uint64, m, items int) [][]problem.Request {
	out := make([][]problem.Request, streamsPerRun)
	for i := range out {
		r := streamRNG(seed, i)
		out[i] = make([]problem.Request, items)
		for t := range out[i] {
			out[i][t] = problem.Request{Edges: []int{r.Intn(m)}, Cost: 1}
		}
	}
	return out
}

func buildAdmitWire(seed uint64, sh shape, _ string) (kit, error) {
	return newWireInstance(seed, sh, admissionOpts{routerHop: true})
}

func buildAdmitDurable(seed uint64, sh shape, walRoot string) (kit, error) {
	return newWireInstance(seed, sh, admissionOpts{walRoot: walRoot})
}

// newWireInstance serves seeded single-edge traffic on the serving-bound
// instance of BenchmarkWireLoopback — 64 edges of capacity 8 — decided by
// the unweighted §3 algorithm.
func newWireInstance(seed uint64, sh shape, opts admissionOpts) (kit, error) {
	caps := make([]int, 64)
	for e := range caps {
		caps[e] = 8
	}
	acfg := core.UnweightedConfig()
	acfg.Seed = subSeed(seed, 1)
	return newAdmission(caps, acfg, wireStreams(seed, len(caps), sh.items), sh.batch, opts)
}

// buildAdmitPaths serves the E14 shape: a random 16-node, 64-edge graph of
// capacity 8 carrying seeded multi-edge paths with uniform costs, decided
// by the default weighted configuration (α doubling and the 4mc² safeguard
// on).
func buildAdmitPaths(seed uint64, sh shape, _ string) (kit, error) {
	g, err := graph.Random(16, 64, 8, rng.New(instanceSeed))
	if err != nil {
		return nil, err
	}
	var caps []int
	streams := make([][]problem.Request, streamsPerRun)
	for i := range streams {
		ins, err := workload.RandomTraffic(g, sh.items, workload.CostUniform, 0, streamRNG(seed, i))
		if err != nil {
			return nil, err
		}
		caps, streams[i] = ins.Capacities, ins.Requests
	}
	acfg := core.DefaultConfig()
	acfg.Seed = subSeed(seed, 1)
	return newAdmission(caps, acfg, streams, sh.batch, admissionOpts{})
}

// buildCover serves a sparse 1024-element, 2048-set system (total degree
// about 21k) with seeded Zipf arrivals capped at each element's degree. A
// session of 4096 arrivals buys about 85% of the sets; the smaller system
// of BenchmarkCoverLoopback is bought whole within a session, after which
// arrivals cost almost nothing.
func buildCover(seed uint64, sh shape, _ string) (kit, error) {
	ins, err := setcover.RandomInstance(1024, 2048, 0.01, 3, false, rng.New(instanceSeed))
	if err != nil {
		return nil, err
	}
	streams := make([][]int, streamsPerRun)
	for i := range streams {
		if streams[i], err = setcover.RandomArrivals(ins, sh.items, 1.0, streamRNG(seed, i)); err != nil {
			return nil, err
		}
	}
	return newCover(ins, subSeed(seed, 1), streams, sh.batch)
}

// querySource is the arrival order exact queries are asked about.
var querySource = lca.Source{Workload: "random", Model: workload.CostUniform, Capacity: 4, N: 256, Seed: instanceSeed}

// buildQuery asks about the source positions in a seeded order: a session
// stream is a prefix of a permutation of all positions, so every full
// session replays the same total work.
func buildQuery(seed uint64, sh shape, _ string) (kit, error) {
	streams := make([][]lca.Query, streamsPerRun)
	for i := range streams {
		perm := streamRNG(seed, i).Perm(querySource.N)
		streams[i] = make([]lca.Query, min(sh.items, len(perm)))
		for t := range streams[i] {
			streams[i][t] = lca.Query{Pos: perm[t]}
		}
	}
	alg := core.DefaultConfig()
	alg.Seed = subSeed(seed, 1)
	return newQuery(querySource, alg, streams, sh.batch)
}

// guardSafeguard refuses admission streams that would trip the weighted §3
// safeguard: a shard's core rejects every later request on an edge once it
// has been requested 4·m·c² times, m being the shard's local edge count and
// c its largest capacity. A session past it would benchmark the reject-all
// regime. Every request on the edge is counted, cross-shard ones included,
// so the guard is conservative.
func guardSafeguard(caps []int, ecfg engine.Config, streams [][]problem.Request) error {
	if ecfg.Algorithm.Unweighted || ecfg.Algorithm.DisableReqPruning {
		return nil
	}
	parts, err := graph.PartitionRange(len(caps), ecfg.Shards)
	if err != nil {
		return err
	}
	for i, stream := range streams {
		count := make([]int, len(caps))
		for _, r := range stream {
			for _, e := range r.Edges {
				count[e]++
			}
		}
		for s, part := range parts {
			c := 0
			for _, e := range part {
				c = max(c, caps[e])
			}
			limit := 4 * len(part) * c * c
			for _, e := range part {
				if count[e] >= limit {
					return fmt.Errorf("stream %d requests edge %d of shard %d %d times, reaching the 4mc² safeguard (%d); shorten the session", i, e, s, count[e], limit)
				}
			}
		}
	}
	return nil
}

// guardDegree refuses cover streams in which an element arrives more often
// than its degree: such arrivals are refused with a per-item error, and a
// session of them would benchmark the refusal path.
func guardDegree(ins *setcover.Instance, streams [][]int) error {
	for i, stream := range streams {
		if err := ins.ValidateArrivals(stream); err != nil {
			return fmt.Errorf("stream %d exceeds an element's degree budget: %w", i, err)
		}
	}
	return nil
}

// admissionOpts selects the admission family's optional layers.
type admissionOpts struct {
	// walRoot, when set, mounts the workload through the decision WAL,
	// with its logs under this directory.
	walRoot string
	// routerHop adds the router-hop rung to the traced ladder.
	routerHop bool
}

// newAdmission builds the admission family over a 4-shard engine and the
// wire codec.
func newAdmission(caps []int, acfg core.Config, streams [][]problem.Request, batch int, opts admissionOpts) (*served[problem.Request, server.DecisionJSON], error) {
	ecfg := engine.Config{Shards: shards, Algorithm: acfg}
	if err := guardSafeguard(caps, ecfg, streams); err != nil {
		return nil, err
	}
	w := &served[problem.Request, server.DecisionJSON]{
		batch:   batch,
		streams: streams,
		client:  server.NewAdmissionWireClient,
		same:    sameAdmission,
	}
	// The reference is the engine itself, fed sequentially (as E14 does):
	// one connection keeps the served order, so the lines must match.
	w.reference = func(stream []problem.Request) ([]server.DecisionJSON, float64, error) {
		eng, err := engine.New(caps, ecfg)
		if err != nil {
			return nil, 0, err
		}
		defer eng.Close()
		lines := make([]server.DecisionJSON, len(stream))
		for t, r := range stream {
			d, err := eng.Submit(context.Background(), r)
			if err != nil {
				return nil, 0, err
			}
			lines[t] = server.DecisionJSON{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted}
		}
		return lines, eng.RejectedCost(), nil
	}
	if opts.walRoot == "" {
		w.mount = func(bool, string) (mounted, error) {
			eng, err := engine.New(caps, ecfg)
			if err != nil {
				return mounted{}, err
			}
			return mounted{reg: server.Admission(eng), objective: eng.RejectedCost, release: eng.Close}, nil
		}
	} else {
		mountDurable(w, caps, ecfg, opts.walRoot)
	}
	w.ladder = func(l *ladder) error { return admissionLadder(l, w, caps, ecfg, opts) }
	return w, nil
}

// mountDurable routes the admission family through the WAL. The check
// session writes a fresh log; every later session starts from a copy of
// it, so its setup includes wal.Open and the replay of that N-record log,
// and its own decisions continue the log's sequence.
func mountDurable(w *served[problem.Request, server.DecisionJSON], caps []int, ecfg engine.Config, walRoot string) {
	seedLog := filepath.Join(walRoot, "seed")
	w.stage = func(i int, check bool) (string, error) {
		if check {
			return seedLog, os.RemoveAll(seedLog)
		}
		dir := filepath.Join(walRoot, fmt.Sprintf("session-%d", i))
		return dir, copyDir(seedLog, dir)
	}
	w.mount = func(check bool, dir string) (mounted, error) {
		eng, err := engine.New(caps, ecfg)
		if err != nil {
			return mounted{}, err
		}
		log, err := wal.Open(dir, wal.Options{Kind: wal.KindAdmission, Fingerprint: eng.Fingerprint()})
		if err != nil {
			return mounted{}, errors.Join(err, eng.Close())
		}
		info, err := server.RecoverAdmission(log, eng)
		if err != nil {
			return mounted{}, errors.Join(err, log.Close(), eng.Close())
		}
		release := func() error {
			err := errors.Join(log.Close(), eng.Close())
			if !check {
				err = errors.Join(err, os.RemoveAll(dir))
			}
			return err
		}
		reg := server.AdmissionDurable(eng, log, server.DurableOptions{Replay: info})
		return mounted{reg: reg, objective: eng.RejectedCost, release: release}, nil
	}
}

// copyDir copies the regular files of src into a fresh directory dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		return errors.Join(err, out.Close())
	}
	return out.Close()
}

func sameAdmission(got, want server.DecisionJSON) bool {
	return got.Error == "" && got.ID == want.ID && got.Accepted == want.Accepted &&
		got.CrossShard == want.CrossShard && slices.Equal(got.Preempted, want.Preempted)
}

// newCover builds the cover family over a 4-shard cover engine and the wire
// codec. Its check session serves a one-shard engine, the configuration the
// sequential §4 reduction reproduces line for line (as E15 does): with
// more shards the global ledger attributes a set bought by two shards to
// whichever shard's decision lands first.
func newCover(ins *setcover.Instance, seed uint64, streams [][]int, batch int) (*served[int, server.CoverDecisionJSON], error) {
	if err := guardDegree(ins, streams); err != nil {
		return nil, err
	}
	w := &served[int, server.CoverDecisionJSON]{
		batch:   batch,
		streams: streams,
		client:  server.NewCoverWireClient,
		same:    sameCover,
	}
	w.reference = func(stream []int) ([]server.CoverDecisionJSON, float64, error) {
		rn, err := setcover.NewReductionRunner(ins, setcover.ReductionConfig{Seed: seed})
		if err != nil {
			return nil, 0, err
		}
		lines := make([]server.CoverDecisionJSON, len(stream))
		for t, j := range stream {
			added, err := rn.Arrive(j)
			if err != nil {
				return nil, 0, err
			}
			lines[t] = server.CoverDecisionJSON{Seq: t, Element: j, Arrival: rn.Arrivals(j), NewSets: added}
		}
		return lines, rn.Cost(), nil
	}
	w.mount = func(check bool, _ string) (mounted, error) {
		k := shards
		if check {
			k = 1
		}
		cov, err := coverengine.New(ins, coverengine.Config{Shards: k, Seed: seed})
		if err != nil {
			return mounted{}, err
		}
		return mounted{reg: server.Cover(cov), objective: cov.Cost, release: cov.Close}, nil
	}
	w.ladder = func(l *ladder) error { return coverLadder(l, w, ins, seed) }
	return w, nil
}

func sameCover(got, want server.CoverDecisionJSON) bool {
	return got.Error == "" && got.Seq == want.Seq && got.Element == want.Element &&
		got.Arrival == want.Arrival && slices.Equal(got.NewSets, want.NewSets)
}

// newQuery builds the query family: exact-fidelity queries against an lca
// engine with 2 workers, over the wire codec. The reference is the 1-shard
// streaming engine's decision at each queried position (as E18 does).
func newQuery(src lca.Source, alg core.Config, streams [][]lca.Query, batch int) (*served[lca.Query, server.QueryDecisionJSON], error) {
	ins, err := workload.BuildNamed(src.Workload, src.Model, src.Capacity, src.N, src.Seed)
	if err != nil {
		return nil, err
	}
	w := &served[lca.Query, server.QueryDecisionJSON]{
		batch:   batch,
		streams: streams,
		client:  server.NewQueryWireClient,
		same:    sameQuery,
	}
	// objective is the rejected cost of the answered positions.
	w.objective = func(stream []lca.Query, lines []server.QueryDecisionJSON) float64 {
		var cost float64
		for t, d := range lines {
			if !d.Accepted {
				cost += ins.Requests[stream[t].Pos].Cost
			}
		}
		return cost
	}
	w.reference = func(stream []lca.Query) ([]server.QueryDecisionJSON, float64, error) {
		eng, err := engine.New(ins.Capacities, engine.Config{Shards: 1, Algorithm: alg})
		if err != nil {
			return nil, 0, err
		}
		defer eng.Close()
		at := make([]server.QueryDecisionJSON, len(ins.Requests))
		for t, r := range ins.Requests {
			d, err := eng.Submit(context.Background(), r)
			if err != nil {
				return nil, 0, err
			}
			at[t] = server.QueryDecisionJSON{Pos: d.ID, Accepted: d.Accepted, Preempted: d.Preempted}
		}
		lines := make([]server.QueryDecisionJSON, len(stream))
		for t, q := range stream {
			lines[t] = at[q.Pos]
		}
		return lines, w.objective(stream, lines), nil
	}
	w.mount = func(bool, string) (mounted, error) {
		eng, err := lca.New(lca.Config{Source: src, Algorithm: alg, Workers: workers})
		if err != nil {
			return mounted{}, err
		}
		return mounted{reg: server.Query(eng), release: eng.Close}, nil
	}
	w.ladder = func(l *ladder) error { return queryLadder(l, w, src, alg, ins) }
	return w, nil
}

func sameQuery(got, want server.QueryDecisionJSON) bool {
	return got.Error == "" && got.Pos == want.Pos && got.Accepted == want.Accepted &&
		slices.Equal(got.Preempted, want.Preempted)
}
