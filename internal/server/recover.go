package server

import (
	"context"
	"fmt"
	"slices"
	"time"

	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/wal"
)

// RecoveryInfo summarizes one completed WAL recovery: how the recovered
// history split between the snapshot and the segment tail, whether a torn
// final record was discarded, and how long the replay took. Node.Open
// returns it; pass it to Node.Mount via DurableOptions so /metrics exposes
// the startup replay.
type RecoveryInfo struct {
	// SnapshotSeq is the number of decisions replayed from the compacted
	// snapshot prefix (0 when there was none).
	SnapshotSeq int64
	// TailRecords is the number of decisions replayed (and re-verified)
	// from the segment tail.
	TailRecords int64
	// TornBytes is the size of the torn final record the log discarded
	// (0 for a clean shutdown).
	TornBytes int64
	// Duration is the wall time of the whole replay.
	Duration time.Duration
}

// DurableOptions tunes a durable workload registration.
type DurableOptions struct {
	// SnapshotEvery is the number of logged decisions between automatic
	// snapshots (0 disables automatic snapshotting; the log then grows
	// until the operator snapshots explicitly, e.g. on shutdown).
	SnapshotEvery int64
	// Replay carries the RecoveryInfo returned by Node.Open (or
	// RecoverAdmission), exposed on /metrics as the startup replay gauges.
	Replay RecoveryInfo
}

// replayChunk is the batch size recovery submits through the engines'
// pipelined batch path (per-shard order — and hence every decision — is
// identical to a sequential Submit loop, so chunking only buys speed).
const replayChunk = 1024

// walReplay is the generic recovery loop shared by every workload: replay
// the snapshot's request prefix, check the engine digest against the one
// stamped into the snapshot, then replay the segment tail verifying that
// every regenerated decision matches the logged one. Snapshot entries and
// tail records both arrive as records, so fromRecord is the one mapping
// from a logged record back to a request.
type walReplay[Req any, Dec any] struct {
	log        *wal.Log
	fromRecord func(rec *wal.Record) Req
	submit     func(reqs []Req) ([]Dec, error)
	match      func(rec *wal.Record, got Dec) error
	digest     func() uint64
}

func (w *walReplay[Req, Dec]) run() (RecoveryInfo, error) {
	start := time.Now()
	rec := w.log.Recovery()
	info := RecoveryInfo{
		SnapshotSeq: rec.SnapshotSeq,
		TailRecords: rec.TailRecords,
		TornBytes:   rec.TornBytes,
	}
	// Snapshot prefix: inputs only. The decisions they produced are not
	// re-verified one by one — the digest check below covers the whole
	// prefix at once.
	reqs := make([]Req, 0, replayChunk)
	flush := func() error {
		if len(reqs) == 0 {
			return nil
		}
		if _, err := w.submit(reqs); err != nil {
			return fmt.Errorf("wal: snapshot replay: %w", err)
		}
		reqs = reqs[:0]
		return nil
	}
	if err := w.log.ReplaySnapshot(func(r *wal.Record) error {
		reqs = append(reqs, w.fromRecord(r))
		if len(reqs) == replayChunk {
			return flush()
		}
		return nil
	}); err != nil {
		return info, err
	}
	if err := flush(); err != nil {
		return info, err
	}
	if rec.SnapshotSeq > 0 {
		if got := w.digest(); got != rec.SnapshotDigest {
			return info, fmt.Errorf("wal: engine state digest %016x after replaying the %d-decision snapshot prefix, snapshot recorded %016x — wrong engine config, or a non-deterministic engine",
				got, rec.SnapshotSeq, rec.SnapshotDigest)
		}
	}
	// Segment tail: inputs paired with their logged decisions. Every
	// replayed decision must match byte for byte — a divergence means the
	// engine is not being rebuilt the way it ran, and recovery must stop
	// before acknowledging anything new.
	recs := make([]wal.Record, 0, replayChunk)
	flushTail := func() error {
		if len(recs) == 0 {
			return nil
		}
		reqs = reqs[:0]
		for i := range recs {
			reqs = append(reqs, w.fromRecord(&recs[i]))
		}
		ds, err := w.submit(reqs)
		if err != nil {
			return fmt.Errorf("wal: tail replay: %w", err)
		}
		for i := range ds {
			if err := w.match(&recs[i], ds[i]); err != nil {
				return err
			}
		}
		recs = recs[:0]
		return nil
	}
	if err := w.log.ReplayTail(func(r *wal.Record) error {
		recs = append(recs, *r)
		if len(recs) == replayChunk {
			return flushTail()
		}
		return nil
	}); err != nil {
		return info, err
	}
	if err := flushTail(); err != nil {
		return info, err
	}
	info.Duration = time.Since(start)
	return info, nil
}

// RecoverAdmission replays an admission decision log into eng, which must
// be freshly built with exactly the configuration the log was recorded
// under (wal.Open already enforces the fingerprint; build the engine, take
// eng.Fingerprint(), open the log with it, then call this). The snapshot
// prefix is replayed and checked against the stored state digest; every
// tail record's regenerated decision is verified against the logged one.
// On success the engine holds exactly the pre-crash state and the log is
// ready for AdmissionDurable.
func RecoverAdmission(log *wal.Log, eng *engine.Engine) (RecoveryInfo, error) {
	ctx := context.Background()
	w := &walReplay[problem.Request, engine.Decision]{
		log: log,
		fromRecord: func(rec *wal.Record) problem.Request {
			return problem.Request{Edges: rec.AdmissionReq.Edges, Cost: rec.AdmissionReq.Cost}
		},
		submit: func(reqs []problem.Request) ([]engine.Decision, error) {
			return eng.SubmitBatch(ctx, reqs)
		},
		match:  matchAdmission,
		digest: eng.StateDigest,
	}
	return w.run()
}

// recoverCover is RecoverAdmission for a set cover decision log.
func recoverCover(log *wal.Log, cov *coverengine.Engine) (RecoveryInfo, error) {
	ctx := context.Background()
	w := &walReplay[int, coverengine.Decision]{
		log:        log,
		fromRecord: func(rec *wal.Record) int { return rec.Element },
		submit: func(elements []int) ([]coverengine.Decision, error) {
			return cov.SubmitBatch(ctx, elements)
		},
		match:  matchCover,
		digest: cov.StateDigest,
	}
	return w.run()
}

// matchAdmission verifies a replayed admission decision against its log
// record.
func matchAdmission(rec *wal.Record, d engine.Decision) error {
	w := &rec.AdmissionDec
	if d.ID == w.ID && d.Accepted == w.Accepted && d.CrossShard == w.CrossShard &&
		slices.Equal(d.Preempted, w.Preempted) && errText(d.Err) == w.Error {
		return nil
	}
	return fmt.Errorf("wal: recovery diverged at decision %d: engine replayed %+v, log holds %+v", w.ID, d, *w)
}

// matchCover verifies a replayed cover decision against its log record.
func matchCover(rec *wal.Record, d coverengine.Decision) error {
	w := &rec.CoverDec
	if d.Seq == w.Seq && d.Element == w.Element && d.Arrival == w.Arrival &&
		slices.Equal(d.NewSets, w.NewSets) && d.AddedCost == w.AddedCost && errText(d.Err) == w.Error {
		return nil
	}
	return fmt.Errorf("wal: recovery diverged at decision %d: engine replayed %+v, log holds %+v", w.Seq, d, *w)
}

// errText renders a per-item failure the way the log stores it.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
