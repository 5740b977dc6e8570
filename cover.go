package admission

import (
	"fmt"

	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/setcover"
)

// Concurrent set cover serving layer (see DESIGN.md §9 and §10). The
// CoverEngine partitions the ground set of elements into shards, runs a
// full instance of the §4 reduction (or the §5 bicriteria algorithm) over
// each shard's restriction of the set system, and serves concurrent
// element arrivals; each decision reports exactly which sets were newly
// bought, with a global ledger guaranteeing every set is paid for once and
// never un-chosen. At one shard it is decision-for-decision identical to
// the sequential reduction (NewSetCoverRunner). Like the admission Engine
// it implements the generic Service contract, as Service[int,
// CoverDecision].
type (
	// CoverEngine is the sharded concurrent set cover server. Submit and
	// SubmitBatch are safe for concurrent use by any number of goroutines;
	// Close drains in-flight arrivals and leaves exact statistics
	// readable.
	CoverEngine = coverengine.Engine
	// CoverDecision reports the engine's reaction to one element arrival:
	// the arrival's sequence number, its per-element repetition count, and
	// the sets newly bought for it.
	CoverDecision = coverengine.Decision
	// CoverEngineStats is the cover engine's full statistics snapshot
	// (arrivals, refusals, chosen sets, cost, preemptions, augmentations),
	// returned by CoverEngine.Snapshot; the uniform cross-workload view is
	// ServiceStats, returned by CoverEngine.Stats.
	CoverEngineStats = coverengine.Stats
	// CoverMode selects the per-shard online set cover algorithm.
	CoverMode = coverengine.Mode
	// SetCoverRunner is the incremental sequential form of the §4
	// reduction: arrivals one at a time, newly bought sets after each.
	SetCoverRunner = setcover.ReductionRunner
)

// Cover engine modes, selected with WithMode.
const (
	// CoverModeReduction runs the §4 reduction driven by the randomized
	// preemptive algorithm (Theorem 4 ⇒ O(log m·log n)-competitive).
	CoverModeReduction = coverengine.ModeReduction
	// CoverModeBicriteria runs the §5 deterministic bicriteria algorithm
	// ((1−ε)k coverage at O(log m·log n)·OPT cost, Theorem 7).
	CoverModeBicriteria = coverengine.ModeBicriteria
)

// ErrCoverEngineClosed is returned by CoverEngine.Submit after Close.
var ErrCoverEngineClosed = coverengine.ErrClosed

// ErrElementSaturated is wrapped by cover decisions (and SetCoverRunner
// arrivals) refusing an element that has already arrived as often as its
// degree — such an arrival is uncoverable by k distinct sets.
var ErrElementSaturated = setcover.ErrElementSaturated

// NewCoverEngine creates a sharded concurrent set cover engine over the
// validated set system, configured by the same functional options as
// NewEngine:
//
//	cov, err := admission.NewCoverEngine(sys,
//		admission.WithShards(4),
//		admission.WithMode(admission.CoverModeBicriteria),
//		admission.WithEps(0.25))
//
// With no options it is a single-shard §4 reduction that reproduces the
// sequential reduction decision for decision under sequential submission.
func NewCoverEngine(sys *SetSystem, opts ...Option) (*CoverEngine, error) {
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	cfg := coverengine.Config{
		Shards:    o.shards,
		Partition: o.partition,
	}
	if o.mode != nil {
		cfg.Mode = *o.mode
	}
	if o.eps != nil {
		if cfg.Mode != coverengine.ModeBicriteria {
			return nil, fmt.Errorf("admission: WithEps requires WithMode(CoverModeBicriteria)")
		}
		cfg.Eps = *o.eps
	}
	// The bicriteria algorithm is deterministic and runs no §3 core, so a
	// seed or algorithm config would be silently meaningless — fail loudly
	// instead (the same philosophy as the WithEps pairing rule above).
	if cfg.Mode == coverengine.ModeBicriteria {
		if o.seed != nil {
			return nil, fmt.Errorf("admission: WithSeed has no effect under CoverModeBicriteria (deterministic algorithm)")
		}
		if o.algorithm != nil {
			return nil, fmt.Errorf("admission: WithAlgorithm has no effect under CoverModeBicriteria (no §3 core)")
		}
	}
	if o.seed != nil {
		cfg.Seed = *o.seed
	}
	if o.algorithm != nil {
		c := core.Config(*o.algorithm)
		// WithSeed overrides the config's seed here too: a fixed Core is
		// used verbatim by the reduction shards, so the override must land
		// inside it.
		if o.seed != nil {
			c.Seed = *o.seed
		}
		cfg.Core = &c
	}
	return coverengine.New(sys, cfg)
}

// NewSetCoverRunner creates the incremental sequential §4 reduction over
// the set system: Arrive serves one element arrival and returns the sets
// newly bought for it. It is the single-goroutine reference the
// CoverEngine is tested against.
func NewSetCoverRunner(sys *SetSystem, seed uint64) (*SetCoverRunner, error) {
	return setcover.NewReductionRunner(sys, setcover.ReductionConfig{Seed: seed})
}

// errOptionScope builds the error for an option passed to the wrong
// constructor.
func errOptionScope(opt, wantCtor string) error {
	return fmt.Errorf("admission: %s applies only to %s", opt, wantCtor)
}
