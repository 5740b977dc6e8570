package engine

import "admission/internal/shard"

// Fingerprint identifies the engine's configuration for the durability
// layer (internal/wal): a decision log records the history of one exact
// engine shape — capacity vector, edge partition, algorithm constants,
// seed — and replaying it into any other engine would silently produce a
// different state, so wal.Open refuses a log whose stored fingerprint
// differs. Two engines built from the same capacities and Config always
// agree.
func (e *Engine) Fingerprint() string {
	return fingerprintOf(e.caps, len(e.shards), e.edgeShard, e.algCfg)
}

// StateDigest returns a deterministic digest of the engine's decision
// state: the global counters, every shard's accounting, and the full load
// and effective-capacity vectors. Two engines that processed identical
// per-shard request streams (including admin resizes, which serialize
// through the same shard loops) report equal digests, which is what makes
// recovery provable — the durability layer stamps the digest into each
// snapshot and compares it after replaying the compacted prefix into a
// fresh engine. Hashing the capacities also makes the digest sensitive to
// live resizes: a resize that is a semantic no-op (grow then shrink back
// with no arrivals in between) leaves the digest unchanged, while any
// net capacity change moves it. Meaningful only at a quiescent point (no
// submissions in flight), where the same consistency caveats as Stats
// vanish.
func (e *Engine) StateDigest() uint64 {
	h := shard.NewDigest()
	h.Int(len(e.shards))
	h.Word(uint64(e.requests.Load()))
	h.Word(uint64(e.accepted.Load()))
	h.Word(uint64(e.crossShard.Load()))
	h.Word(uint64(e.crossAccepted.Load()))
	h.Float(e.crossRejected.Load())
	for _, snap := range e.snapshots() {
		h.Int(snap.requests)
		h.Int(snap.preemptions)
		h.Float(snap.rejectedCost)
		h.Int(len(snap.loads))
		for _, load := range snap.loads {
			h.Int(load)
		}
		for _, c := range snap.caps {
			h.Int(c)
		}
	}
	return uint64(h)
}
