package admission

import (
	"fmt"

	"admission/internal/core"
)

// Option configures an engine constructor (NewEngine, NewCoverEngine).
// Options replace the old EngineConfig/CoverEngineConfig structs with one
// shared functional surface: the same WithShards/WithPartition options
// tune either engine, while workload-specific options (WithMode,
// WithEps for set cover; WithAlgorithm's interpretation) are validated by
// the constructor they are passed to. See DESIGN.md §10 for the migration
// table.
type Option func(*engineOptions) error

// engineOptions accumulates the options' settings; each constructor
// resolves them into its internal config struct.
type engineOptions struct {
	shards    int
	partition [][]int
	seed      *uint64
	algorithm *Config
	mode      *CoverMode
	eps       *float64
}

// applyOptions folds the options into one settings record.
func applyOptions(opts []Option) (*engineOptions, error) {
	o := &engineOptions{}
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// WithShards sets the number of shards the engine partitions its state
// into (edges for admission, elements for set cover), each with its own
// lock and event loop. The default is 1, which reproduces the paper's
// sequential algorithm decision for decision.
func WithShards(k int) Option {
	return func(o *engineOptions) error {
		if k <= 0 {
			return fmt.Errorf("admission: WithShards(%d): shard count must be > 0", k)
		}
		o.shards = k
		return nil
	}
}

// WithPartition fixes the engine's state partition explicitly:
// partition[s] lists the global ids (edges or elements) owned by shard s,
// each id exactly once. It overrides WithShards; use PartitionEdges or a
// topology-aware partition to build one.
func WithPartition(partition [][]int) Option {
	return func(o *engineOptions) error {
		if len(partition) == 0 {
			return fmt.Errorf("admission: WithPartition: empty partition")
		}
		o.partition = partition
		return nil
	}
}

// WithSeed seeds the engine's randomized algorithms. It overrides the seed
// of a WithAlgorithm config; shard 0 keeps the seed itself, so a one-shard
// engine is bit-identical to the sequential algorithm on that seed.
// NewCoverEngine rejects it under WithMode(CoverModeBicriteria) — the
// bicriteria algorithm is deterministic and a seed would be silently
// meaningless.
func WithSeed(seed uint64) Option {
	return func(o *engineOptions) error {
		o.seed = &seed
		return nil
	}
}

// WithAlgorithm fixes the §2/§3 algorithm constants. For NewEngine it
// configures the per-shard randomized instances (default DefaultConfig);
// for NewCoverEngine it fixes the reduction's admission-control core
// (default: derived from the instance the way the sequential reduction
// does) and is rejected under WithMode(CoverModeBicriteria), which runs
// no §3 core.
func WithAlgorithm(cfg Config) Option {
	return func(o *engineOptions) error {
		o.algorithm = &cfg
		return nil
	}
}

// WithMode selects the set cover engine's per-shard algorithm
// (CoverModeReduction or CoverModeBicriteria). NewEngine rejects it.
func WithMode(m CoverMode) Option {
	return func(o *engineOptions) error {
		o.mode = &m
		return nil
	}
}

// WithEps sets the bicriteria slack ε ∈ (0,1) of CoverModeBicriteria (the
// engine defaults to 0.25). NewEngine rejects it.
func WithEps(eps float64) Option {
	return func(o *engineOptions) error {
		if eps <= 0 || eps >= 1 {
			return fmt.Errorf("admission: WithEps(%v): slack must be in (0,1)", eps)
		}
		o.eps = &eps
		return nil
	}
}

// admissionAlgorithm resolves the §3 configuration for NewEngine.
func (o *engineOptions) admissionAlgorithm() core.Config {
	acfg := core.DefaultConfig()
	if o.algorithm != nil {
		acfg = *o.algorithm
	}
	if o.seed != nil {
		acfg.Seed = *o.seed
	}
	return acfg
}
