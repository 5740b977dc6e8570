package admission_test

import (
	"context"
	"strings"
	"testing"

	"admission"
	"admission/internal/rng"
	"admission/internal/setcover"
)

// TestEngineOptions exercises the functional-option constructors: defaults,
// sharding, seeding, and the scope validation that rejects cover-only
// options on the admission constructor.
func TestEngineOptions(t *testing.T) {
	caps := []int{4, 4, 4, 4}
	ctx := context.Background()

	t.Run("defaults", func(t *testing.T) {
		eng, err := admission.NewEngine(caps)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if eng.Shards() != 1 {
			t.Fatalf("default shards = %d, want 1", eng.Shards())
		}
		d, err := eng.Submit(ctx, admission.Request{Edges: []int{0, 1}, Cost: 2})
		if err != nil || !d.Accepted {
			t.Fatalf("Submit: %+v, %v", d, err)
		}
	})

	t.Run("sharded with options", func(t *testing.T) {
		eng, err := admission.NewEngine(caps,
			admission.WithShards(2),
			admission.WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if eng.Shards() != 2 {
			t.Fatalf("shards = %d, want 2", eng.Shards())
		}
		ds, err := eng.SubmitBatch(ctx, []admission.Request{
			{Edges: []int{0}, Cost: 1},
			{Edges: []int{3}, Cost: 1},
		})
		if err != nil || len(ds) != 2 {
			t.Fatalf("SubmitBatch: %v, %v", ds, err)
		}
	})

	t.Run("partition", func(t *testing.T) {
		parts, err := admission.PartitionEdges(len(caps), 2)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := admission.NewEngine(caps, admission.WithPartition(parts))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if eng.Shards() != 2 {
			t.Fatalf("shards = %d, want 2", eng.Shards())
		}
	})

	t.Run("seed reproducibility", func(t *testing.T) {
		run := func() admission.EngineStats {
			eng, err := admission.NewEngine([]int{2},
				admission.WithSeed(7),
				admission.WithAlgorithm(admission.UnweightedConfig()))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for i := 0; i < 10; i++ {
				if _, err := eng.Submit(ctx, admission.Request{Edges: []int{0}, Cost: 1}); err != nil {
					t.Fatal(err)
				}
			}
			eng.Close()
			return eng.Snapshot()
		}
		a, b := run(), run()
		if a.Accepted != b.Accepted || a.RejectedCost != b.RejectedCost {
			t.Fatalf("same seed, different outcomes: %+v vs %+v", a, b)
		}
	})

	t.Run("scope errors", func(t *testing.T) {
		if _, err := admission.NewEngine(caps, admission.WithMode(admission.CoverModeBicriteria)); err == nil || !strings.Contains(err.Error(), "NewCoverEngine") {
			t.Fatalf("WithMode on NewEngine: %v", err)
		}
		if _, err := admission.NewEngine(caps, admission.WithEps(0.1)); err == nil {
			t.Fatal("WithEps on NewEngine accepted")
		}
		if _, err := admission.NewEngine(caps, admission.WithShards(0)); err == nil {
			t.Fatal("WithShards(0) accepted")
		}
		if _, err := admission.NewEngine(caps, admission.WithEps(2)); err == nil {
			t.Fatal("WithEps(2) accepted")
		}
	})
}

// TestCoverEngineOptions exercises the cover constructor's options,
// including the bicriteria mode pairing rule for WithEps.
func TestCoverEngineOptions(t *testing.T) {
	r := rng.New(5)
	sys, err := setcover.RandomInstance(12, 20, 0.4, 2, false, r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	t.Run("reduction default", func(t *testing.T) {
		cov, err := admission.NewCoverEngine(sys, admission.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		defer cov.Close()
		d, err := cov.Submit(ctx, 0)
		if err != nil || d.Err != nil {
			t.Fatalf("Submit: %+v, %v", d, err)
		}
	})

	t.Run("bicriteria with eps", func(t *testing.T) {
		cov, err := admission.NewCoverEngine(sys,
			admission.WithShards(2),
			admission.WithMode(admission.CoverModeBicriteria),
			admission.WithEps(0.25))
		if err != nil {
			t.Fatal(err)
		}
		defer cov.Close()
		if cov.Mode() != admission.CoverModeBicriteria || cov.Shards() != 2 {
			t.Fatalf("mode %v shards %d", cov.Mode(), cov.Shards())
		}
	})

	t.Run("eps requires bicriteria", func(t *testing.T) {
		if _, err := admission.NewCoverEngine(sys, admission.WithEps(0.25)); err == nil {
			t.Fatal("WithEps without WithMode(CoverModeBicriteria) accepted")
		}
	})

	t.Run("bicriteria rejects meaningless options", func(t *testing.T) {
		if _, err := admission.NewCoverEngine(sys,
			admission.WithMode(admission.CoverModeBicriteria),
			admission.WithSeed(42)); err == nil {
			t.Fatal("WithSeed under bicriteria accepted (it has no effect)")
		}
		if _, err := admission.NewCoverEngine(sys,
			admission.WithMode(admission.CoverModeBicriteria),
			admission.WithAlgorithm(admission.DefaultConfig())); err == nil {
			t.Fatal("WithAlgorithm under bicriteria accepted (it has no effect)")
		}
	})

	// Regression: WithSeed must override the seed of a WithAlgorithm
	// config here too (the fixed Core is used verbatim by the reduction
	// shards, so the override has to land inside it).
	t.Run("seed overrides algorithm config", func(t *testing.T) {
		arrivals, err := setcover.RandomArrivals(sys, 24, 1.0, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		run := func(opts ...admission.Option) []int {
			cov, err := admission.NewCoverEngine(sys, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cov.Close()
			if _, err := cov.SubmitBatch(ctx, arrivals); err != nil {
				t.Fatal(err)
			}
			return cov.Chosen()
		}
		cfg := admission.UnweightedConfig()
		viaOption := run(admission.WithAlgorithm(cfg), admission.WithSeed(42))
		cfg.Seed = 42
		viaConfig := run(admission.WithAlgorithm(cfg))
		if len(viaOption) != len(viaConfig) {
			t.Fatalf("WithSeed ignored alongside WithAlgorithm: %v vs %v", viaOption, viaConfig)
		}
		for i := range viaOption {
			if viaOption[i] != viaConfig[i] {
				t.Fatalf("WithSeed ignored alongside WithAlgorithm: %v vs %v", viaOption, viaConfig)
			}
		}
	})
}

// TestFacadeServiceContract drives both engines through the generic
// Service alias — the one serving API of DESIGN.md §10 — proving a caller
// can be written once against Service and serve either workload.
func TestFacadeServiceContract(t *testing.T) {
	ctx := context.Background()

	eng, err := admission.NewEngine([]int{4, 4}, admission.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	n, err := countDecisions(ctx, eng, []admission.Request{
		{Edges: []int{0}, Cost: 1}, {Edges: []int{1}, Cost: 2},
	})
	if err != nil || n != 2 {
		t.Fatalf("admission via Service: %d decisions, %v", n, err)
	}
	if st := eng.Stats(); st.Requests != 2 {
		t.Fatalf("uniform stats: %+v", st)
	}

	r := rng.New(9)
	sys, err := setcover.RandomInstance(10, 16, 0.4, 2, false, r)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := admission.NewCoverEngine(sys, admission.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	n, err = countDecisions(ctx, cov, []int{0, 1, 2})
	if err != nil || n != 3 {
		t.Fatalf("cover via Service: %d decisions, %v", n, err)
	}
}

// countDecisions is a workload-agnostic serving loop written once against
// the generic Service contract: submit every request as one batch, drain,
// close, and report how many decisions came back.
func countDecisions[Req any, Dec admission.ServiceDecision](ctx context.Context, svc admission.Service[Req, Dec], reqs []Req) (int, error) {
	ds, err := svc.SubmitBatch(ctx, reqs)
	if err != nil {
		return 0, err
	}
	if err := svc.Drain(ctx); err != nil {
		return len(ds), err
	}
	return len(ds), svc.Close()
}
