package coverengine

import (
	"fmt"

	"admission/internal/shard"
)

// Fingerprint identifies the cover engine's configuration for the
// durability layer (internal/wal): the set system, element partition,
// mode, slack and seeds all steer decisions, so a decision log is
// replayable only into an engine that matches on every one of them.
// wal.Open refuses a log whose stored fingerprint differs.
func (e *Engine) Fingerprint() string {
	h := shard.NewDigest()
	h.Int(e.ins.N)
	h.Int(e.ins.M())
	for id, set := range e.ins.Sets {
		h.Float(e.ins.Cost(id))
		h.Int(len(set))
		for _, el := range set {
			h.Int(el)
		}
	}
	h.Int(e.rt.Shards())
	for _, s := range e.elemShard {
		h.Int(int(s))
	}
	h.Int(int(e.mode))
	h.Word(e.seed)
	h.Float(e.eps)
	if e.coreCfg != nil {
		cfg := *e.coreCfg
		h.Word(1)
		h.Bool(cfg.Unweighted)
		h.Float(cfg.LogBase)
		h.Float(cfg.ThresholdFactor)
		h.Float(cfg.ProbFactor)
		h.Int(int(cfg.AlphaMode))
		h.Float(cfg.Alpha)
		h.Float(cfg.DoublingBudgetFactor)
		h.Bool(cfg.DisableReqPruning)
		h.Word(cfg.Seed)
	} else {
		h.Word(0)
	}
	return fmt.Sprintf("cover/v1 n=%d m=%d k=%d mode=%v seed=%d cfg=%016x", e.ins.N, e.ins.M(), e.rt.Shards(), e.mode, e.seed, uint64(h))
}

// StateDigest returns a deterministic digest of the cover engine's
// decision state: the arrival counters, the global chosen ledger, and
// every shard's accounting including its per-element arrival counts. Two
// engines that served identical per-shard arrival streams report equal
// digests; the durability layer stamps it into snapshots and verifies it
// after recovery replay. Meaningful only at a quiescent point (no
// arrivals in flight).
func (e *Engine) StateDigest() uint64 {
	h := shard.NewDigest()
	h.Int(e.rt.Shards())
	h.Word(uint64(e.seq.Load()))
	h.Word(uint64(e.arrivals.Load()))
	h.Word(uint64(e.errs.Load()))
	e.mu.Lock()
	h.Int(e.chosenCount)
	h.Float(e.cost)
	for _, c := range e.chosen {
		h.Bool(c)
	}
	e.mu.Unlock()
	for _, snap := range e.snapshots() {
		h.Int(snap.arrivals)
		h.Int(snap.preemptions)
		h.Int(snap.augmentations)
		h.Word(snap.countDigest)
	}
	return uint64(h)
}
