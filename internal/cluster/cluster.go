// Package cluster is the multi-node tier (DESIGN.md §14): one router
// process in front of N backend processes, each backend owning a
// consistent-hash partition of the global edge set and running its own
// sharded admission engine (internal/engine). The tier lifts the engine's
// in-process two-phase cross-shard protocol to RPC — a request whose edges
// span backends is decided by reserving one capacity unit per edge on
// every touched backend (phase 1) and committing or aborting the
// transaction (phase 2), over the binary wire protocol (internal/wire)
// that already carries single-process admission traffic.
//
// The design preserves the single-process tier's determinism guarantee at
// cluster scale: every backend operation — offers, reserves, commits,
// aborts, including protocol no-ops — consumes exactly one engine ID, so a
// backend's decision stream is contiguous and WAL-appendable
// (internal/wal, KindCluster), and a router over one backend is
// line-identical to a direct engine (experiment E19). Transactions are
// identified by router-assigned IDs; a commit or abort names only its
// transaction, and settling an unknown transaction is a deterministic
// no-op, which is what lets the router blindly settle in-doubt
// transactions after a backend crash without risking double-application.
//
// Concurrency contract: a Backend's submissions are serialized internally
// (the decision order defines its replayable history); a Router serializes
// whole batches, fanning each batch's per-backend operations out
// concurrently. Both implement service.Service and plug into the generic
// serving stack (internal/server) unchanged.
package cluster

import (
	"errors"
	"fmt"

	"admission/internal/wire"
)

// Sentinel errors of the cluster tier's client and router. Callers match
// them with errors.Is; every returned error wraps exactly one of these
// (plus the underlying cause where there is one).
var (
	// ErrUnavailable marks a backend that could not be reached at all (the
	// dial failed, or the server answered 502/503/504 before accepting the
	// submission). The operations were not applied; retrying is safe.
	ErrUnavailable = errors.New("cluster: backend unavailable")
	// ErrRateLimited marks a 429 refusal. The operations were not applied;
	// retrying is safe after the advertised delay.
	ErrRateLimited = errors.New("cluster: backend rate-limited")
	// ErrRejected marks a permanent refusal (any other 4xx: malformed
	// submission, unknown workload, oversized batch). Retrying cannot
	// succeed.
	ErrRejected = errors.New("cluster: backend rejected submission")
	// ErrInterrupted marks an indeterminate exchange: the submission was
	// sent but the decision stream did not complete (transport failure
	// mid-response, truncated frame, in-stream server error). The
	// operations may or may not have been applied; the caller must
	// reconcile against the backend's durable state instead of retrying.
	ErrInterrupted = errors.New("cluster: exchange interrupted")
	// ErrProtocol marks a syntactically invalid response (malformed or
	// unexpected wire frame in a complete exchange). Not retryable.
	ErrProtocol = errors.New("cluster: protocol error")
	// ErrFingerprintMismatch marks a backend whose engine identity differs
	// from the partition the router derived for it.
	ErrFingerprintMismatch = errors.New("cluster: backend fingerprint mismatch")
	// ErrPartitionDown marks a refusal issued by the router because a
	// backend owning one of the request's edges is shed (crashed or
	// unreachable, not yet re-admitted).
	ErrPartitionDown = errors.New("cluster: partition down")
)

// OpKind enumerates backend operations. The kinds are the wire codec's
// cluster operation codes, so a kind and a cluster WAL record's op byte
// convert by a cast.
type OpKind uint8

const (
	// OpOffer submits one admission request local to the backend's
	// partition; the backend's engine decides it exactly as a direct
	// submission.
	OpOffer = OpKind(wire.ClusterOpOffer)
	// OpReserve tentatively consumes one capacity unit per listed edge
	// under a router-assigned transaction (phase 1). Granted atomically or
	// not at all.
	OpReserve = OpKind(wire.ClusterOpReserve)
	// OpCommit makes a granted reservation permanent (phase 2 keep).
	// Settling an unknown transaction is a deterministic no-op.
	OpCommit = OpKind(wire.ClusterOpCommit)
	// OpAbort returns a granted reservation (phase 2 undo). Settling an
	// unknown transaction is a deterministic no-op.
	OpAbort = OpKind(wire.ClusterOpAbort)
)

// String returns the CLI/JSON spelling of the kind.
func (k OpKind) String() string {
	switch k {
	case OpOffer:
		return "offer"
	case OpReserve:
		return "reserve"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Valid reports whether k names a known operation kind.
func (k OpKind) Valid() bool { return k <= OpAbort }

// MarshalJSON renders the kind as its string spelling.
func (k OpKind) MarshalJSON() ([]byte, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("cluster: cannot marshal %s", k)
	}
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the string spelling, looking it up through String.
func (k *OpKind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("cluster: op kind must be a JSON string, got %s", b)
	}
	s := string(b[1 : len(b)-1])
	for c := OpOffer; c.Valid(); c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown op kind %q", s)
}

// Op is one backend operation — the request type a Backend serves. Edges
// are indices into the backend's own partition (the router translates
// global edges before sending).
type Op struct {
	// Kind selects the operation.
	Kind OpKind `json:"op"`
	// Tx is the router-assigned transaction ID of a reserve/commit/abort.
	Tx uint64 `json:"tx,omitempty"`
	// Edges lists backend-local edges: the request's edges for an offer,
	// the reserved edges for a reserve. Commits and aborts carry none (the
	// backend remembers the granted edges by transaction).
	Edges []int `json:"edges,omitempty"`
	// Cost is the request cost of an offer.
	Cost float64 `json:"cost,omitempty"`
}
