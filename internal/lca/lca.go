// Package lca is the local-computation query tier (DESIGN.md §13): the
// third served workload, answering stateless "what would the decision for
// arrival position r be?" queries against a seeded arrival order instead
// of streaming the whole sequence through one stateful engine.
//
// The arrival order is not transmitted: server and client both derive it
// from a (workload name, seed) pair through internal/workload's named
// generators, so a query is just a position. Following the
// local-computation-algorithms framing of the paper's setting ("Converting
// Online Algorithms to Local Computation Algorithms", Mansour et al.;
// space-efficient LCAs per Alon, Rubinfeld, Vardi & Xie), an answer needs
// the online run's prefix — but nothing requires that prefix to be
// recomputed per query.
//
// Every query is answered from the engine's shared frontier: one §3
// instance, seeded with the engine's algorithm seed, that has decided
// positions [0, k) and recorded each outcome. A query at r < k is a table
// lookup; a query at r ≥ k extends the frontier to r+1 first, so an engine
// asked about all N positions simulates N arrivals in total, not
// N(N+1)/2. Because the single-shard streaming engine is bit-identical to
// the unsharded algorithm under the same seed, an answer is line-identical
// to the decision the streaming engine emits at position r — the guarantee
// experiment E18 and this package's property suite assert.
//
// Concurrency contract: an Engine is safe for concurrent use by any
// number of goroutines. Queries serialize on the frontier's mutex, so
// Config.Workers — the semaphore bound and SubmitBatch's fan-out — scales
// nothing; it stays because the bench module prices lca.ns_per_query at 1
// and 2 workers. Statistics are atomically aggregated and exact after
// Close.
package lca

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"admission/internal/core"
	"admission/internal/problem"
	"admission/internal/service"
	"admission/internal/workload"
)

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("lca: engine closed")

// Source names the seeded arrival order the engine answers queries about.
// Server and client agree on the sequence by exchanging only this spec
// (in practice: matching acserve/acload flags), never the requests.
type Source struct {
	// Workload is a named generator from internal/workload (BuildNamed).
	Workload string
	// Model is the request cost model.
	Model workload.CostModel
	// Capacity is the per-edge capacity handed to the generator.
	Capacity int
	// N is the arrival-sequence length; queries address positions [0, N).
	N int
	// Seed drives the generator; identical (Workload, Model, Capacity, N,
	// Seed) tuples produce identical sequences everywhere.
	Seed uint64
}

// Config configures a query engine.
type Config struct {
	// Source is the seeded arrival order (required).
	Source Source
	// Algorithm configures the frontier's §3 instance; its Seed must match
	// the streaming engine's for answers to be line-identical to it.
	Algorithm core.Config
	// Workers bounds concurrent query computations and SubmitBatch's
	// fan-out (default GOMAXPROCS). Queries serialize on the frontier, so
	// the bound scales nothing.
	Workers int
}

// Query asks for the decision at one arrival position.
type Query struct {
	// Pos is the arrival position in [0, N).
	Pos int `json:"pos"`
}

// Answer is the decision reconstructed for one query.
type Answer struct {
	// Pos echoes the queried position; it equals the ID the streaming
	// engine assigns the same arrival.
	Pos int
	// Accepted reports whether the arrival is admitted at position Pos.
	Accepted bool
	// Preempted lists the global positions of previously accepted arrivals
	// this decision evicts.
	Preempted []int
	// Replayed is the length of the arrival prefix the answer reflects,
	// always Pos+1, whether computed or looked up. The arrivals actually
	// simulated are counted by Engine.Simulated.
	Replayed int
	// Err carries a per-query failure; an Answer with Err set has no other
	// meaningful fields beyond Pos.
	Err error
}

// DecisionErr returns the per-query failure, satisfying the generic
// service.Decision constraint.
func (a Answer) DecisionErr() error { return a.Err }

// Engine answers decision queries over one seeded arrival order. It
// implements service.Service[Query, Answer], so it plugs into the generic
// serving stack exactly like the streaming engines.
type Engine struct {
	cfg     Config
	ins     *problem.Instance
	workers int
	sema    chan struct{}

	front frontier

	gate service.Gate

	requests  atomic.Int64
	accepted  atomic.Int64
	errs      atomic.Int64
	replayed  atomic.Int64
	simulated atomic.Int64
}

// frontier is the shared decided prefix: one §3 instance that has
// decided positions [0, len(out)) and recorded each outcome. A replay
// failure at position len(out) is sticky: every query at or past it
// reports err, as an independent replay of its prefix would.
type frontier struct {
	mu  sync.Mutex
	alg *core.Randomized
	out []problem.Outcome
	err error
}

var _ service.Service[Query, Answer] = (*Engine)(nil)

// New builds a query engine: it generates the source sequence once (held
// immutable thereafter), validates that the algorithm configuration can
// replay it, and keeps the validating §3 instance as the frontier.
func New(cfg Config) (*Engine, error) {
	ins, err := workload.BuildNamed(cfg.Source.Workload, cfg.Source.Model,
		cfg.Source.Capacity, cfg.Source.N, cfg.Source.Seed)
	if err != nil {
		return nil, err
	}
	if err := cfg.Algorithm.Validate(); err != nil {
		return nil, err
	}
	// Fail configuration mismatches (e.g. unweighted constants over a
	// non-unit cost model) at construction, not on the first query.
	if cfg.Algorithm.Unweighted {
		for pos, r := range ins.Requests {
			if r.Cost != 1 {
				return nil, fmt.Errorf("lca: unweighted algorithm over %q: position %d has cost %v (want unit costs)",
					cfg.Source.Workload, pos, r.Cost)
			}
		}
	}
	alg, err := core.NewRandomized(ins.Capacities, cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		cfg:     cfg,
		ins:     ins,
		workers: workers,
		sema:    make(chan struct{}, workers),
		front:   frontier{alg: alg},
	}, nil
}

// Source returns the arrival-order spec the engine serves.
func (e *Engine) Source() Source { return e.cfg.Source }

// Algorithm returns the frontier's algorithm configuration.
func (e *Engine) Algorithm() core.Config { return e.cfg.Algorithm }

// Workers returns the concurrent-computation bound.
func (e *Engine) Workers() int { return e.workers }

// Positions returns the number of queryable arrival positions (the source
// sequence length N).
func (e *Engine) Positions() int { return len(e.ins.Requests) }

// Instance exposes the generated source sequence for reference replays
// (experiments and tests). The caller must treat it as read-only.
func (e *Engine) Instance() *problem.Instance { return e.ins }

// Validate checks a query exactly the way Submit would.
func (e *Engine) Validate(q Query) error {
	if q.Pos < 0 || q.Pos >= len(e.ins.Requests) {
		return fmt.Errorf("lca: position %d out of range [0, %d)", q.Pos, len(e.ins.Requests))
	}
	return nil
}

// account folds one computed answer into the engine's statistics.
func (e *Engine) account(a *Answer) {
	e.requests.Add(1)
	e.replayed.Add(int64(a.Replayed))
	if a.Err != nil {
		e.errs.Add(1)
		return
	}
	if a.Accepted {
		e.accepted.Add(1)
	}
}

// compute answers one query under the worker semaphore and accounts it.
func (e *Engine) compute(q Query) Answer {
	e.sema <- struct{}{}
	a := e.answer(q.Pos)
	<-e.sema
	e.account(&a)
	return a
}

// Submit answers one query inline and blocks until it is decided. A
// per-query replay failure is returned as the error (mirroring the
// streaming engines' Submit).
func (e *Engine) Submit(ctx context.Context, q Query) (Answer, error) {
	if !e.gate.Enter() {
		return Answer{}, ErrClosed
	}
	defer e.gate.Exit()
	if err := e.Validate(q); err != nil {
		return Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	a := e.compute(q)
	return a, a.Err
}

// SubmitBatch answers a slice of queries, fanned out across the worker
// pool with answers in query order. Validation is atomic: an invalid query
// fails the whole batch before anything is computed; per-query replay
// failures are reported on the answers instead.
func (e *Engine) SubmitBatch(ctx context.Context, qs []Query) ([]Answer, error) {
	for i, q := range qs {
		if err := e.Validate(q); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return e.SubmitBatchPrevalidated(ctx, qs)
}

// SubmitBatchPrevalidated is SubmitBatch without the validation pass (the
// serving layer validates at the request boundary). The calling goroutine
// is one of the min(Workers, len(qs)) workers, so a batch of one query
// spawns no goroutine.
func (e *Engine) SubmitBatchPrevalidated(ctx context.Context, qs []Query) ([]Answer, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if !e.gate.Enter() {
		return nil, ErrClosed
	}
	defer e.gate.Exit()
	out := make([]Answer, len(qs))
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		cancelled atomic.Bool
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(qs) {
				return
			}
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			out[i] = e.compute(qs[i])
		}
	}
	for w := 1; w < min(e.workers, len(qs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return out, nil
}

// Stats returns the uniform statistics snapshot. Objective is the sum of
// the answers' Replayed prefix lengths; Shards reports the worker bound.
func (e *Engine) Stats() service.Stats {
	return service.Stats{
		Requests:  e.requests.Load(),
		Accepted:  e.accepted.Load(),
		Errors:    e.errs.Load(),
		Objective: float64(e.replayed.Load()),
		Shards:    e.workers,
	}
}

// Simulated returns the number of arrivals the engine has actually
// offered to the frontier's §3 instance: an engine answering every
// position simulates each arrival once.
func (e *Engine) Simulated() int64 { return e.simulated.Load() }

// Drain blocks until no queries are in flight or ctx is done.
func (e *Engine) Drain(ctx context.Context) error { return e.gate.Wait(ctx) }

// Close shuts the engine down: subsequent submissions fail with ErrClosed,
// in-flight queries finish, and statistics remain readable (and exact)
// afterwards. Close is idempotent.
func (e *Engine) Close() error {
	if e.gate.Close() {
		return e.gate.Wait(context.Background())
	}
	return nil
}

// answer answers position pos from the shared frontier, first extending
// it to pos+1 when pos is not yet decided.
func (e *Engine) answer(pos int) Answer {
	a := Answer{Pos: pos}
	f := &e.front
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.out) <= pos && f.err == nil {
		i := len(f.out)
		out, err := f.alg.Offer(i, e.ins.Requests[i])
		e.simulated.Add(1)
		if err != nil {
			f.err = fmt.Errorf("lca: replay failed at position %d: %w", i, err)
			break
		}
		f.out = append(f.out, out)
	}
	if pos >= len(f.out) {
		a.Err = f.err
		return a
	}
	a.Accepted = f.out[pos].Accepted
	a.Preempted = slices.Clone(f.out[pos].Preempted)
	a.Replayed = pos + 1
	return a
}
