package server

import (
	"errors"
	"fmt"

	"admission/internal/cluster"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/wal"
)

// Node is one workload's engine as the serving binaries run it: its route
// name, its WAL kind and fingerprint, and how to recover a decision log
// into it, mount it with or without one, and shut it down. The engines'
// coins come from a seeded generator, so replaying a log into a fresh node
// rebuilds its exact state.
type Node struct {
	// Name is the workload's route name (/v1/<Name>), which is also the
	// name of its log's directory under a serving binary's WAL root.
	Name string
	// Fingerprint is the engine's configuration fingerprint; Open refuses
	// a log recorded under another one.
	Fingerprint string
	// StateDigest returns the engine's deterministic state digest.
	StateDigest func() uint64
	// Close closes the engine; call it after Finish.
	Close func() error

	kind    wal.Kind
	recover func(*wal.Log) (RecoveryInfo, error)
	memory  Registration
	durable func(*wal.Log, DurableOptions) Registration
}

// AdmissionNode is the admission engine's node.
func AdmissionNode(eng *engine.Engine) *Node {
	return newNode(WorkloadAdmission, wal.KindAdmission, eng, RecoverAdmission, Admission, AdmissionDurable)
}

// CoverNode is the set cover engine's node.
func CoverNode(cov *coverengine.Engine) *Node {
	return newNode(WorkloadCover, wal.KindCover, cov, recoverCover, Cover, coverDurable)
}

// ClusterNode is a cluster backend's node, serving one ring partition.
func ClusterNode(b *cluster.Backend) *Node {
	return newNode(cluster.Workload, wal.KindCluster, b, recoverCluster, ClusterBackend, clusterBackendDurable)
}

// newNode binds a workload's recover and mount functions to its engine.
func newNode[E interface {
	Fingerprint() string
	StateDigest() uint64
	Close() error
}](name string, kind wal.Kind, eng E,
	recover func(*wal.Log, E) (RecoveryInfo, error),
	memory func(E) Registration,
	durable func(E, *wal.Log, DurableOptions) Registration,
) *Node {
	return &Node{
		Name:        name,
		Fingerprint: eng.Fingerprint(),
		StateDigest: eng.StateDigest,
		Close:       eng.Close,
		kind:        kind,
		recover:     func(log *wal.Log) (RecoveryInfo, error) { return recover(log, eng) },
		memory:      memory(eng),
		durable:     func(log *wal.Log, opts DurableOptions) Registration { return durable(eng, log, opts) },
	}
}

// Open opens the node's decision log in dir under its kind and fingerprint
// and replays it into the fresh engine, verifying every logged decision.
// Serving binaries open it for appending; an offline fsck opens it
// read-only and modifies nothing. The caller owns the returned log.
func (n *Node) Open(dir string, readOnly bool) (*wal.Log, RecoveryInfo, error) {
	log, err := wal.Open(dir, wal.Options{Kind: n.kind, Fingerprint: n.Fingerprint, ReadOnly: readOnly})
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info, err := n.recover(log)
	if err != nil {
		log.Close()
		return nil, RecoveryInfo{}, err
	}
	return log, info, nil
}

// Mount returns the node's registration: durable through log when log is
// non-nil, in memory (ignoring opts) otherwise.
func (n *Node) Mount(log *wal.Log, opts DurableOptions) Registration {
	if log == nil {
		return n.memory
	}
	return n.durable(log, opts)
}

// Finish is the node's shutdown path, called with the drain's result. After
// a clean drain it snapshots the log if anything was logged since the last
// snapshot, so the next start replays nothing. After a failed drain a
// handler may hold a batch the engine decided but the log never appended;
// a snapshot's digest would cover decisions its prefix lacks, so it writes
// none and the next start replays the tail. Then it closes the log; a nil
// log is a no-op.
func (n *Node) Finish(log *wal.Log, drainErr error) error {
	if log == nil {
		return nil
	}
	var snapErr error
	if drainErr == nil && log.RecordsSinceSnapshot() > 0 {
		snapErr = log.WriteSnapshot(n.StateDigest())
	}
	if err := errors.Join(snapErr, log.Close()); err != nil {
		return fmt.Errorf("%s wal: %w", n.Name, err)
	}
	return nil
}
