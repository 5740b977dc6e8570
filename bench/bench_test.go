package main

import (
	"slices"
	"strings"
	"testing"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/setcover"
)

// tiny shrinks a workload to a few hundred items, so that every phase runs
// one session and the whole test stays within seconds.
func tiny(w spec) spec {
	w.items, w.batch, w.rate = 200, 50, 400000
	if w.name == "query-exact" {
		w.items, w.batch, w.rate = 24, 1, 4000
	}
	return w
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2eNames, layerNames []string
	for _, m := range endToEnd {
		e2eNames = append(e2eNames, m.name+" "+m.unit)
	}
	for _, m := range perLayer {
		layerNames = append(layerNames, m.name+" "+m.unit)
	}
	var declaredE2E, declaredLayers []string
	for _, m := range s.EndToEnd {
		declaredE2E = append(declaredE2E, m.Name+" "+m.Unit)
	}
	for _, m := range s.PerLayer {
		declaredLayers = append(declaredLayers, m.Name+" "+m.Unit)
	}
	if !slices.Equal(e2eNames, declaredE2E) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2eNames, declaredE2E)
	}
	if !slices.Equal(layerNames, declaredLayers) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layerNames, declaredLayers)
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload at tiny scale,
// untraced and traced, and checks it is correct and reports every metric
// BENCHMARK.json declares.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := tiny(w)
			walRoot := t.TempDir()
			k, err := w.build(7, w.shape, walRoot)
			if err != nil {
				t.Fatal(err)
			}
			o, err := e2e(k, w, 0.01, 1)
			if err != nil || !o.Correct {
				t.Fatalf("untraced run: %v %s", err, o.Problem)
			}
			for _, m := range s.EndToEnd {
				if _, ok := o.Metrics[m.Name]; !ok {
					t.Errorf("untraced run does not report %s", m.Name)
				}
			}
			o, _, err = traced(k, w, 0.01, walRoot)
			if err != nil || !o.Correct {
				t.Fatalf("traced run: %v %s", err, o.Problem)
			}
			for _, m := range s.PerLayer {
				if _, ok := o.Metrics[m.Name]; !ok {
					t.Errorf("traced run does not report %s", m.Name)
				}
			}
		})
	}
}

// TestCheckRejectsPerturbedDecision flips one reference decision and
// expects the check phase to report the divergence at that line.
func TestCheckRejectsPerturbedDecision(t *testing.T) {
	w, err := lookup("admit-wire")
	if err != nil {
		t.Fatal(err)
	}
	k, err := w.build(3, tiny(w).shape, "")
	if err != nil {
		t.Fatal(err)
	}
	served := k.(*served[problem.Request, server.DecisionJSON])
	reference := served.reference
	served.reference = func(stream []problem.Request) ([]server.DecisionJSON, float64, error) {
		lines, obj, err := reference(stream)
		if err == nil {
			lines[5].Accepted = !lines[5].Accepted
		}
		return lines, obj, err
	}
	c, err := served.check()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(c.divergence, "line 5:") {
		t.Fatalf("check reported %q, want a divergence at line 5", c.divergence)
	}
}

func TestGuardsRefuseInputsOutsideTheirRegime(t *testing.T) {
	// Two shards of two edges at capacity 1: the safeguard fires at the
	// 4·2·1² = 8th request on an edge.
	caps := []int{1, 1, 1, 1}
	ecfg := engine.Config{Shards: 2, Algorithm: core.DefaultConfig()}
	stream := make([]problem.Request, 8)
	for i := range stream {
		stream[i] = problem.Request{Edges: []int{3}, Cost: 1}
	}
	if err := guardSafeguard(caps, ecfg, [][]problem.Request{stream[:7]}); err != nil {
		t.Errorf("7 requests on one edge refused: %v", err)
	}
	if err := guardSafeguard(caps, ecfg, [][]problem.Request{stream}); err == nil {
		t.Error("8 requests on one edge of a 2-edge capacity-1 shard accepted")
	}
	ecfg.Algorithm = core.UnweightedConfig()
	if err := guardSafeguard(caps, ecfg, [][]problem.Request{stream}); err != nil {
		t.Errorf("unweighted config has no safeguard, yet refused: %v", err)
	}

	ins, err := setcover.RandomInstance(16, 32, 0.2, 2, false, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	within := make([]int, ins.Degree(0))
	if err := guardDegree(ins, [][]int{within}); err != nil {
		t.Errorf("element 0 arriving its degree %d times refused: %v", ins.Degree(0), err)
	}
	if err := guardDegree(ins, [][]int{append(within, 0)}); err == nil {
		t.Error("element 0 arriving beyond its degree accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := specMetric{Name: "throughput", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{shift(1), "unchanged"},
		{shift(1.05), "improved"},
		{shift(0.85), "regressed"},
		{[]float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}, "unresolved"},
	} {
		if got := judge("w", def, base, c.b).verdict; got != c.want {
			t.Errorf("B = %v: verdict %s, want %s", c.b, got, c.want)
		}
	}
}
