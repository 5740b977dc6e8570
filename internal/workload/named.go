package workload

import (
	"fmt"
	"sort"
	"strings"

	"admission/internal/graph"
	"admission/internal/problem"
	"admission/internal/rng"
)

// ParseCostModel maps the CLI spelling of a cost model to its value.
func ParseCostModel(name string) (CostModel, error) {
	switch strings.ToLower(name) {
	case "unit":
		return CostUnit, nil
	case "uniform":
		return CostUniform, nil
	case "pareto":
		return CostPareto, nil
	default:
		return 0, fmt.Errorf("workload: unknown cost model %q (want unit|uniform|pareto)", name)
	}
}

// namedBuilder constructs one named workload.
type namedBuilder func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error)

// namedWorkloads is the registry behind BuildNamed; acsim and acgen share
// it so the two tools always agree on what a workload name means.
var namedWorkloads = map[string]namedBuilder{
	"single-edge": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		return SingleEdgeOverload(capacity, n, model, r)
	},
	"blocks": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		return BlockOverload(4, capacity, (n+3)/4, model, r)
	},
	"grid": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		g, err := graph.Grid(5, 5, capacity)
		if err != nil {
			return nil, err
		}
		return RandomTraffic(g, n, model, 0, r)
	},
	"line": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		g, err := graph.Line(16, capacity)
		if err != nil {
			return nil, err
		}
		return RandomTraffic(g, n, model, 0, r)
	},
	"tree": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		g, err := graph.Tree(16, capacity, r)
		if err != nil {
			return nil, err
		}
		return RandomTraffic(g, n, model, 0, r)
	},
	"random": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		g, err := graph.Random(12, 36, capacity, r)
		if err != nil {
			return nil, err
		}
		return RandomTraffic(g, n, model, 0, r)
	},
	"hypercube": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		g, err := graph.Hypercube(4, capacity)
		if err != nil {
			return nil, err
		}
		return RandomTraffic(g, n, model, 0, r)
	},
	"feasible": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		g, err := graph.Grid(5, 5, capacity)
		if err != nil {
			return nil, err
		}
		return Feasible(g, n, model, r)
	},
	"hotspot": func(model CostModel, capacity, n int, r *rng.RNG) (*problem.Instance, error) {
		g, err := graph.Grid(5, 5, capacity)
		if err != nil {
			return nil, err
		}
		return RandomTraffic(g, n, model, 1.2, r)
	},
}

// Names returns the sorted list of workloads BuildNamed accepts.
func Names() []string {
	out := make([]string, 0, len(namedWorkloads))
	for name := range namedWorkloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Capacities derives a serving binary's capacity vector from its
// -workload, -edges and -cap flags: the named workload's topology at the
// given capacity or, with no name, edges copies of capacity. acserve,
// acrouter and acreplay all derive it here, so a router, its backends and
// an offline fsck agree on it.
func Capacities(name string, edges, capacity int, seed uint64) ([]int, error) {
	if name != "" {
		ins, err := BuildNamed(name, CostUnit, capacity, 0, seed)
		if err != nil {
			return nil, err
		}
		return ins.Capacities, nil
	}
	if edges <= 0 || capacity <= 0 {
		return nil, fmt.Errorf("workload: need -edges > 0 and -cap > 0")
	}
	caps := make([]int, edges)
	for i := range caps {
		caps[i] = capacity
	}
	return caps, nil
}

// BuildNamed constructs the named workload with the given cost model,
// per-edge capacity, request count and seed. It is the single source of
// truth for the workload names exposed by acsim and acgen.
func BuildNamed(name string, model CostModel, capacity, n int, seed uint64) (*problem.Instance, error) {
	builder, ok := namedWorkloads[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (want one of %s)", name, strings.Join(Names(), "|"))
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("workload: capacity %d, want > 0", capacity)
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: negative request count %d", n)
	}
	ins, err := builder(model, capacity, n, rng.New(seed))
	if err != nil {
		return nil, err
	}
	if err := ins.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated instance invalid: %w", err)
	}
	return ins, nil
}
