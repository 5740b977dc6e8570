package core

import (
	"testing"

	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/trace"
)

// FuzzRandomizedFeasibility decodes an arbitrary byte string into an
// admission instance and checks that the randomized algorithm (both
// variants) survives it: no panics, no capacity violations (the runner
// checks every step), and no cost misreporting. Run with
//
//	go test -fuzz FuzzRandomizedFeasibility ./internal/core
//
// The seed corpus covers the structural corner cases; without -fuzz the
// corpus alone runs as a regular test.
func FuzzRandomizedFeasibility(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0}, true, uint8(1))
	f.Add([]byte{2, 3, 1, 0, 1, 1, 5, 0}, false, uint8(7))
	f.Add([]byte{4, 1, 1, 1, 1, 0, 1, 2, 3}, true, uint8(0))
	f.Add([]byte{}, false, uint8(9))

	f.Fuzz(func(t *testing.T, data []byte, unweighted bool, seed uint8) {
		ins := decodeInstance(data, unweighted)
		if ins == nil {
			return
		}
		var cfg Config
		if unweighted {
			cfg = UnweightedConfig()
		} else {
			cfg = DefaultConfig()
		}
		cfg.Seed = uint64(seed)
		alg, err := NewRandomized(ins.Capacities, cfg)
		if err != nil {
			t.Fatalf("constructor rejected a valid capacity vector: %v", err)
		}
		res, err := trace.Run(alg, ins, trace.Options{Check: true, Record: true})
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		if res.RejectedCost > ins.TotalCost()+1e-9 {
			t.Fatalf("rejected more than total cost")
		}
		if _, err := trace.Replay(ins, res.Events); err != nil {
			t.Fatalf("recorded log does not replay: %v", err)
		}
	})
}

// FuzzAugmentRunsMatchStepwise decodes an arbitrary byte string into an
// instance and requires the run-structured §2 augmentation to match the
// per-step reference of stepwise_test.go bit for bit, in the mode the mode
// byte selects (weighted doubling, oracle α, unweighted), with shrinks and
// ForceRejects drawn from opSeed interleaved. Run with
//
//	go test -fuzz FuzzAugmentRunsMatchStepwise ./internal/core
func FuzzAugmentRunsMatchStepwise(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 1, 0, 1, 0}, uint8(0), uint64(1))
	f.Add([]byte{2, 3, 1, 0, 1, 1, 5, 0, 1, 90, 0, 1, 40}, uint8(1), uint64(7))
	f.Add([]byte{4, 1, 1, 1, 1, 0, 1, 2, 3, 3, 0, 1, 2, 3}, uint8(2), uint64(3))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8, opSeed uint64) {
		cfg := twinModes[int(mode)%len(twinModes)].cfg(opSeed)
		ins := decodeInstance(data, cfg.Unweighted)
		if ins == nil {
			return
		}
		driveTwins(t, ins.Capacities, cfg, ins.Requests, rng.New(opSeed), 0.1, 0.05)
	})
}

// decodeInstance interprets bytes as: m, then m capacities, then repeated
// requests of the form (edgeCount, edges..., cost). Values are reduced into
// valid ranges so every byte string maps to a *valid* instance (invalid
// encodings return nil); validation-rejection paths are covered by unit
// tests, while fuzzing hunts for algorithmic state-machine bugs.
func decodeInstance(data []byte, unweighted bool) *problem.Instance {
	if len(data) < 2 {
		return nil
	}
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		b := data[pos]
		pos++
		return b, true
	}
	mb, _ := next()
	m := int(mb%6) + 1
	ins := &problem.Instance{Capacities: make([]int, m)}
	for e := 0; e < m; e++ {
		b, ok := next()
		if !ok {
			return nil
		}
		ins.Capacities[e] = int(b%5) + 1
	}
	for pos < len(data) && len(ins.Requests) < 64 {
		cb, ok := next()
		if !ok {
			break
		}
		count := int(cb%uint8(m)) + 1
		seen := map[int]bool{}
		var edges []int
		for len(edges) < count {
			b, ok := next()
			if !ok {
				break
			}
			e := int(b) % m
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		if len(edges) == 0 {
			break
		}
		cost := 1.0
		if !unweighted {
			b, ok := next()
			if !ok {
				b = 1
			}
			cost = float64(int(b%200) + 1)
		}
		ins.Requests = append(ins.Requests, problem.Request{Edges: edges, Cost: cost})
	}
	if ins.Validate() != nil {
		return nil
	}
	return ins
}
