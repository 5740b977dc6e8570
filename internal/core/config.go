// Package core implements the paper's primary contribution: the fractional
// online algorithm for admission control to minimize rejections (§2) and the
// randomized preemptive online algorithms derived from it (§3), in weighted
// and unweighted variants.
//
// The fractional algorithm maintains a monotone-increasing weight f_i per
// request (the fraction rejected) and restores the covering invariant
// Σ_{i∈ALIVE_e} f_i ≥ n_e on every edge an arrival touches via multiplicative
// weight augmentations. The randomized algorithm rounds the fractional
// weights online: it preempts requests whose weight crosses a threshold,
// rejects proportionally to weight increases, and falls back to rejecting
// the arriving request when its path is still saturated, which keeps the
// integral solution feasible deterministically.
//
// Concurrency contract: Fractional and Randomized are single-threaded
// online algorithms — their Offer/ShrinkCapacity streams mutate shared
// incremental state and must be called from one goroutine at a time with
// no interleaving. Concurrent serving is layered above: internal/engine
// runs one Randomized instance per shard, each confined to its shard's
// event-loop goroutine.
package core

import (
	"fmt"
	"math"
)

// AlphaMode selects how the weighted fractional algorithm obtains its guess
// α for the optimal cost (§2).
type AlphaMode uint8

const (
	// AlphaDoubling is the paper's fully online guess-and-double scheme:
	// start at the cheapest request on the first overloaded edge, and double
	// (forgetting past fractions) whenever the phase cost exceeds the
	// budget DoublingBudgetFactor·α·log₂(2gc).
	AlphaDoubling AlphaMode = iota
	// AlphaOracle uses a caller-provided value (typically the offline
	// fractional optimum); used by experiments to isolate the algorithm's
	// behaviour from the guessing machinery (ablation E9 compares both).
	AlphaOracle
)

func (m AlphaMode) String() string {
	switch m {
	case AlphaDoubling:
		return "doubling"
	case AlphaOracle:
		return "oracle"
	default:
		return fmt.Sprintf("AlphaMode(%d)", uint8(m))
	}
}

// Config carries the tunable constants of the §2/§3 algorithms. The zero
// value is not valid; use DefaultConfig (weighted) or UnweightedConfig and
// override fields as needed.
type Config struct {
	// Unweighted selects the §3 unweighted variant: no cost normalization
	// (g = 1) and the log m scaling of Theorem 4. All request costs must
	// then be exactly 1.
	Unweighted bool

	// LogBase is the base of the logarithms in the threshold and
	// probability scalings. The paper leaves the base unspecified; we
	// default to 2 and expose it for the constants ablation (E8).
	LogBase float64

	// ThresholdFactor T: a request is preempted once its fractional weight
	// reaches 1/(T·L), where L = log(mc) (weighted) or log m (unweighted).
	// Paper values: 12 (weighted, §3 step 2), 4 (unweighted).
	ThresholdFactor float64

	// ProbFactor P: a weight increase of δ triggers rejection with
	// probability P·δ·L. Paper values: 12 (weighted, §3 step 3), 4
	// (unweighted).
	ProbFactor float64

	// AlphaMode / Alpha configure the §2 guess for the optimum (weighted
	// only; the unweighted algorithm never uses α).
	AlphaMode AlphaMode
	Alpha     float64

	// DoublingBudgetFactor K sets the phase budget K·α·log₂(2gc) beyond
	// which the doubling scheme advances (the paper's Θ(α log(mc))
	// threshold). Default 6.
	DoublingBudgetFactor float64

	// DisableReqPruning turns off the §3 safeguard that rejects every
	// request of an edge once |REQ_e| ≥ 4mc² (weighted only). The
	// safeguard exists for adversarial tails and almost never fires in the
	// experiments; the flag enables testing both paths.
	DisableReqPruning bool

	// Seed drives the randomized algorithm's coin flips.
	Seed uint64
}

// DefaultConfig returns the paper's weighted-case constants.
func DefaultConfig() Config {
	return Config{
		LogBase:              2,
		ThresholdFactor:      12,
		ProbFactor:           12,
		AlphaMode:            AlphaDoubling,
		DoublingBudgetFactor: 6,
	}
}

// UnweightedConfig returns the paper's unweighted-case constants.
func UnweightedConfig() Config {
	return Config{
		Unweighted:           true,
		LogBase:              2,
		ThresholdFactor:      4,
		ProbFactor:           4,
		AlphaMode:            AlphaDoubling,
		DoublingBudgetFactor: 6,
	}
}

// SeededConfig returns the unweighted-case constants if unweighted, the
// weighted-case ones otherwise, with the given seed: the derivation behind
// the serving binaries' -unweighted and -seed flags, on which their engine
// fingerprints agree.
func SeededConfig(unweighted bool, seed uint64) Config {
	c := DefaultConfig()
	if unweighted {
		c = UnweightedConfig()
	}
	c.Seed = seed
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LogBase <= 1 {
		return fmt.Errorf("core: LogBase %v must be > 1", c.LogBase)
	}
	if c.ThresholdFactor <= 0 {
		return fmt.Errorf("core: ThresholdFactor %v must be > 0", c.ThresholdFactor)
	}
	if c.ProbFactor <= 0 {
		return fmt.Errorf("core: ProbFactor %v must be > 0", c.ProbFactor)
	}
	if c.AlphaMode == AlphaOracle {
		if !(c.Alpha > 0) || math.IsInf(c.Alpha, 1) || math.IsNaN(c.Alpha) {
			return fmt.Errorf("core: AlphaOracle requires Alpha in (0, inf), got %v", c.Alpha)
		}
	}
	if c.AlphaMode != AlphaOracle && c.AlphaMode != AlphaDoubling {
		return fmt.Errorf("core: unknown AlphaMode %v", c.AlphaMode)
	}
	if c.DoublingBudgetFactor <= 0 {
		return fmt.Errorf("core: DoublingBudgetFactor %v must be > 0", c.DoublingBudgetFactor)
	}
	return nil
}

// logB returns log_base(x) clamped below at 1, so the threshold and
// probability scalings degrade gracefully on tiny instances (m = c = 1
// would otherwise divide by log 1 = 0).
func (c Config) logB(x float64) float64 {
	if x <= c.LogBase {
		return 1
	}
	return math.Log(x) / math.Log(c.LogBase)
}
