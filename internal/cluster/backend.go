package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/service"
)

// ErrClosed is returned by backend submissions after Close.
var ErrClosed = errors.New("cluster: backend closed")

// BackendConfig configures one backend's engine over its partition.
type BackendConfig struct {
	// Engine configures the backend's admission engine (shard count or
	// explicit partition, algorithm constants, seed). Every backend of a
	// cluster and the router must agree on it.
	Engine engine.Config
}

// Backend serves one partition's operations through the backend's own
// admission engine, adding the transaction table that turns the wire
// protocol's settle-by-transaction ops into the engine's settle-by-edges
// submissions. It implements service.Service[Op, engine.Decision], so it
// mounts on the generic serving stack like any engine.
//
// Determinism: operations are decided strictly in submission order (one
// internal lock), and the transaction table is a pure function of the
// decided stream — a reserve's grant records its edges under its
// transaction, a settle consumes them, and settling an unknown transaction
// maps to the engine's empty-edge no-op. Replaying a backend's WAL through
// Submit therefore rebuilds both the engine state and the table exactly.
type Backend struct {
	eng *engine.Engine

	mu     sync.Mutex
	txs    map[uint64][]int
	closed bool
}

var _ service.Service[Op, engine.Decision] = (*Backend)(nil)

// NewBackend builds a backend over its partition's capacity vector (see
// Ring.Caps). Edges in submitted operations index into caps.
func NewBackend(caps []int, cfg BackendConfig) (*Backend, error) {
	eng, err := engine.New(caps, cfg.Engine)
	if err != nil {
		return nil, err
	}
	return &Backend{eng: eng, txs: map[uint64][]int{}}, nil
}

// Engine exposes the backend's engine for recovery and experiments.
func (b *Backend) Engine() *engine.Engine { return b.eng }

// Fingerprint identifies the backend's engine configuration (see
// engine.Fingerprint); the router checks it against the partition-derived
// expectation before routing.
func (b *Backend) Fingerprint() string { return b.eng.Fingerprint() }

// StateDigest returns the engine's deterministic state digest (meaningful
// at a quiescent point only).
func (b *Backend) StateDigest() uint64 { return b.eng.StateDigest() }

// OpenTxs returns the number of granted, unsettled transactions.
func (b *Backend) OpenTxs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.txs)
}

// Validate checks an operation exactly the way Submit would.
func (b *Backend) Validate(op Op) error {
	switch op.Kind {
	case OpOffer:
		return b.eng.Validate(problem.Request{Edges: op.Edges, Cost: op.Cost})
	case OpReserve:
		return b.eng.ValidateClusterEdges(op.Edges)
	case OpCommit, OpAbort:
		if len(op.Edges) != 0 {
			return fmt.Errorf("cluster: %s op carries %d edges (settles name only a transaction)", op.Kind, len(op.Edges))
		}
		return nil
	default:
		return fmt.Errorf("cluster: unknown op kind %d", op.Kind)
	}
}

// Submit decides one operation and blocks until the engine has applied it.
// Operations are serialized: concurrent Submits decide in lock-acquisition
// order, and that order is the backend's replayable history.
func (b *Backend) Submit(ctx context.Context, op Op) (engine.Decision, error) {
	if err := b.Validate(op); err != nil {
		return engine.Decision{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.submitLocked(ctx, op)
}

// submitLocked dispatches one validated operation under the lock.
func (b *Backend) submitLocked(ctx context.Context, op Op) (engine.Decision, error) {
	if b.closed {
		return engine.Decision{}, ErrClosed
	}
	switch op.Kind {
	case OpOffer:
		return b.eng.Submit(ctx, problem.Request{Edges: op.Edges, Cost: op.Cost})
	case OpReserve:
		d, err := b.eng.SubmitReserve(ctx, op.Edges)
		if err == nil && d.Accepted {
			b.txs[op.Tx] = append([]int(nil), op.Edges...)
		}
		return d, err
	case OpCommit:
		return b.settle(ctx, op.Tx, b.eng.SubmitCommit)
	default: // OpAbort; Validate rejected everything else
		return b.settle(ctx, op.Tx, b.eng.SubmitRelease)
	}
}

// settle resolves a transaction through the engine: its granted edges when
// the table knows it, the engine's empty-edge no-op when it does not (the
// transaction was refused, already settled, or never applied here) — both
// consume exactly one engine ID.
func (b *Backend) settle(ctx context.Context, tx uint64, apply func(context.Context, []int) (engine.Decision, error)) (engine.Decision, error) {
	edges, ok := b.txs[tx]
	if !ok {
		return apply(ctx, nil)
	}
	d, err := apply(ctx, edges)
	if err == nil {
		delete(b.txs, tx)
	}
	return d, err
}

// SubmitBatch decides a slice of operations in order. Validation is
// atomic: an invalid operation fails the whole batch before anything is
// applied. The batch holds the submission lock end to end, so a batch is
// one contiguous run of the backend's history.
func (b *Backend) SubmitBatch(ctx context.Context, ops []Op) ([]engine.Decision, error) {
	for i, op := range ops {
		if err := b.Validate(op); err != nil {
			return nil, fmt.Errorf("cluster: batch[%d]: %w", i, err)
		}
	}
	return b.SubmitBatchPrevalidated(ctx, ops)
}

// SubmitBatchPrevalidated is SubmitBatch without the validation pass (the
// serving layer validates at the request boundary).
//
// Runs of consecutive offers are pipelined through the engine's batch path,
// paying the shard round-trip latency once per run instead of once per
// operation; the engine guarantees the decision stream is identical to
// submitting them one at a time. Reserves and settles decide inline — they
// read or write the transaction table, which must observe grants in history
// order.
func (b *Backend) SubmitBatchPrevalidated(ctx context.Context, ops []Op) ([]engine.Decision, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("cluster: batch[0] (%s): %w", ops[0].Kind, ErrClosed)
	}
	out := make([]engine.Decision, len(ops))
	for i := 0; i < len(ops); {
		if ops[i].Kind != OpOffer {
			d, err := b.submitLocked(ctx, ops[i])
			if err != nil {
				// Whole-batch failure: a per-op error here is an engine fault
				// or a ctx done before the op took its ID, and continuing
				// would decide later ops against a history the caller will
				// never see.
				return nil, fmt.Errorf("cluster: batch[%d] (%s): %w", i, ops[i].Kind, err)
			}
			out[i] = d
			i++
			continue
		}
		j := i + 1
		for j < len(ops) && ops[j].Kind == OpOffer {
			j++
		}
		reqs := make([]problem.Request, j-i)
		for k := i; k < j; k++ {
			reqs[k-i] = problem.Request{Edges: ops[k].Edges, Cost: ops[k].Cost}
		}
		ds, err := b.eng.SubmitBatchPrevalidated(ctx, reqs)
		if err != nil {
			return nil, fmt.Errorf("cluster: batch[%d] (%s): %w", i, OpOffer, err)
		}
		for k := range ds {
			if ds[k].Err != nil {
				return nil, fmt.Errorf("cluster: batch[%d] (%s): %w", i+k, OpOffer, ds[k].Err)
			}
			out[i+k] = ds[k]
		}
		i = j
	}
	return out, nil
}

// Stats returns the uniform statistics snapshot. Requests counts every
// applied operation — the backend's durable history length, which the
// router's resync protocol reads as the applied watermark.
func (b *Backend) Stats() service.Stats { return b.eng.Stats() }

// Drain blocks until no operations are in flight or ctx is done.
func (b *Backend) Drain(ctx context.Context) error { return b.eng.Drain(ctx) }

// Close shuts the backend down: subsequent submissions fail, statistics
// remain readable. Close is idempotent.
func (b *Backend) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return b.eng.Close()
}
