package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"admission/internal/core"
	"admission/internal/problem"
	"admission/internal/rng"
)

// compact drops every shard's retired requests now, each under its shard's
// lock: the core's retired slots and the ID map's forgotten entries.
func (e *Engine) compact() {
	for i, s := range e.shards {
		e.rt.Lock(i)
		s.alg.Compact()
		s.accepted.compact()
		e.rt.Unlock(i)
	}
}

// TestCompactionInvisibleEngine drives twin 4-shard engines through
// identical batches (cross-shard requests included), reserve→commit and
// reserve→release pairs, grows and shrinks; one twin compacts every shard
// after every operation. Both must report identical decisions, resizes,
// statistics and StateDigest after every operation, under weighted α
// doubling with the 4mc² safeguard on (it fires here, force-rejecting the
// requests it preempts) and off, oracle α, and unweighted.
func TestCompactionInvisibleEngine(t *testing.T) {
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"weighted-doubling", core.DefaultConfig()},
		{"weighted-doubling-no-safeguard", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.DisableReqPruning = true
			return cfg
		}()},
		{"oracle-alpha", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.AlphaMode = core.AlphaOracle
			cfg.Alpha = 20
			return cfg
		}()},
		{"unweighted", core.UnweightedConfig()},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				// Capacities of 1 and 2 over 6 edges a shard put the
				// 4mc² safeguard at 96 requests an edge, which the
				// single-shard traffic passes; capacities up to 8 keep
				// longer alive lists, whose sums depend on their order.
				driveEngineTwins(t, mode.cfg, seed, 1500, 2)
				driveEngineTwins(t, mode.cfg, seed, 1500, 8)
			}
		})
	}
}

// driveEngineTwins runs ops random operations on a fresh twin pair over
// 24 edges of capacities drawn from [1, maxCap].
func driveEngineTwins(t *testing.T, acfg core.Config, seed uint64, ops, maxCap int) {
	r := rng.New(seed)
	caps := make([]int, 24)
	for e := range caps {
		caps[e] = 1 + r.Intn(maxCap)
	}
	acfg.Seed = seed
	var lazy, packed *Engine
	for _, eng := range []**Engine{&lazy, &packed} {
		var err error
		if *eng, err = New(caps, Config{Shards: 4, Algorithm: acfg}); err != nil {
			t.Fatal(err)
		}
		defer (*eng).Close()
	}
	// Nine requests in ten stay inside one shard's six edges (the default
	// partition is contiguous): cross-shard accepts are permanent, and
	// more of them would use up the capacity and leave every alive list
	// short.
	request := func() problem.Request {
		cost := 1.0
		if !acfg.Unweighted {
			cost = float64(1 + r.Intn(100))
		}
		edges := r.Perm(len(caps))[:1+r.Intn(3)]
		if r.Bernoulli(0.9) {
			base := 6 * r.Intn(4)
			edges = r.Perm(6)[:1+r.Intn(3)]
			for i := range edges {
				edges[i] += base
			}
		}
		return problem.Request{Edges: edges, Cost: cost}
	}
	bg := context.Background()
	for op := 0; op < ops; op++ {
		var name string
		var run func(e *Engine) (any, error)
		switch k := r.Intn(10); {
		case k < 6:
			reqs := make([]problem.Request, 1+r.Intn(16))
			for i := range reqs {
				reqs[i] = request()
			}
			name = fmt.Sprintf("batch of %d", len(reqs))
			run = func(e *Engine) (any, error) { return e.SubmitBatch(bg, reqs) }
		case k < 8:
			edges := request().Edges
			settle := (*Engine).SubmitRelease
			if r.Bernoulli(0.5) {
				settle = (*Engine).SubmitCommit
			}
			name = fmt.Sprintf("reserve %v and settle", edges)
			run = func(e *Engine) (any, error) {
				d, err := e.SubmitReserve(bg, edges)
				if err != nil || !d.Accepted {
					return d, err
				}
				s, err := settle(e, bg, edges)
				return []Decision{d, s}, err
			}
		default:
			edge := r.Intn(len(caps))
			resize := (*Engine).ShrinkCapacity
			if r.Bernoulli(0.5) {
				resize = (*Engine).GrowCapacity
			}
			name = fmt.Sprintf("resize of edge %d", edge)
			run = func(e *Engine) (any, error) { return resize(e, bg, edge, 1) }
		}
		outL, errL := run(lazy)
		outP, errP := run(packed)
		where := fmt.Sprintf("seed %d caps ≤ %d op %d (%s)", seed, maxCap, op, name)
		if fmt.Sprint(errL) != fmt.Sprint(errP) || !reflect.DeepEqual(outL, outP) {
			t.Fatalf("%s: %+v (%v), compacted twin %+v (%v)", where, outL, errL, outP, errP)
		}
		if dl, dp := lazy.StateDigest(), packed.StateDigest(); dl != dp {
			t.Fatalf("%s: StateDigest %x, compacted twin %x", where, dl, dp)
		}
		if sl, sp := lazy.Snapshot(), packed.Snapshot(); !reflect.DeepEqual(sl, sp) {
			t.Fatalf("%s: Snapshot %+v, compacted twin %+v", where, sl, sp)
		}
		packed.compact()
	}
}
