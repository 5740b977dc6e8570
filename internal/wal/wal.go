// Package wal is the durability layer of the serving stack (DESIGN.md
// §12): a write-ahead log of engine decisions plus periodic snapshots,
// giving acserve crash recovery that is provably decision-identical to an
// uninterrupted run (experiment E17).
//
// # Model
//
// Both engines are decision-deterministic: given the same seed and the
// same per-shard arrival order, they reproduce the same decision stream
// (the property the E14/E15/E16 identity gates already enforce). The WAL
// therefore persists *inputs paired with their decisions*, in submission
// order, rather than dumping engine state: recovery replays the logged
// requests through a freshly built engine and verifies that every replayed
// decision matches the logged one. A snapshot is the same idea compacted —
// the records' request halves only, with the decisions dropped and the
// engine's state digest kept for verification — which keeps persisted state
// proportional to the inputs, in the spirit of the space-efficient local
// computation algorithms line of work (PAPERS.md).
//
// # On-disk layout
//
// A log directory holds numbered segment files and snapshot files:
//
//	wal-%016x.seg   records for sequence numbers [firstSeq, nextSeq)
//	snap-%016x.snap compacted request prefix covering [0, seq)
//
// Every record is uvarint(len) | payload | crc32c(payload); the payload is
// a kind byte followed by the request frame and the decision frame in the
// binary wire codec (internal/wire) — the same canonical length-prefixed
// framing the serving hot path speaks, reused rather than reinvented. A
// snapshot entry is a record's request half in the same request frame:
// one encoder and one decoder per kind (appendRequest, decodeRequest)
// serve both, and a cluster record's request frame is the wire package's
// cluster-operation codec. Segment and snapshot headers use the same
// record framing; snapshots additionally carry a whole-body CRC and are
// written via internal/atomicfile (write-temp → fsync → rename →
// fsync-dir). TestGoldenBytes pins every byte of each kind's files.
//
// # Recovery invariants
//
// Open scans every segment:
//
//   - A torn final record (truncated bytes, or a CRC mismatch extending to
//     the physical end of the last segment) is tolerated and truncated
//     away: group commit guarantees a torn record was never acknowledged
//     to any client.
//   - Any damage before the tail — a CRC mismatch followed by more bytes,
//     a broken length prefix mid-file, a gap in the sequence numbers, a
//     non-final segment that does not meet its successor — is corruption
//     and fails Open loudly. Durability must not silently drop
//     acknowledged decisions.
//   - A missing snapshot is fine while the segment chain still reaches
//     back to sequence 0 (full replay); segments are pruned only after a
//     newer snapshot is durable, so a valid chain always exists unless the
//     directory was tampered with.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"

	"admission/internal/wire"
)

// Kind discriminates which workload a log (and each of its records)
// belongs to.
type Kind uint8

// Kinds of logged decisions.
const (
	// KindAdmission records admission-control decisions
	// (internal/engine).
	KindAdmission Kind = 1
	// KindCover records set-cover decisions (internal/coverengine).
	KindCover Kind = 2
	// KindCluster records cluster backend operations (internal/cluster):
	// the union stream of local admissions and two-phase protocol messages
	// a router submits to one backend.
	KindCluster Kind = 3
)

// String names the kind for errors and headers.
func (k Kind) String() string {
	switch k {
	case KindAdmission:
		return "admission"
	case KindCover:
		return "cover"
	case KindCluster:
		return "cluster"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

func (k Kind) valid() bool { return k == KindAdmission || k == KindCover || k == KindCluster }

// Errors of the durability layer. ErrCorrupt wraps every refusal to
// recover (damage before the log tail); errors.Is distinguishes it from a
// tolerated torn tail, which is not an error at all.
var (
	// ErrCorrupt marks damage that recovery must not paper over:
	// acknowledged decisions would be lost.
	ErrCorrupt = errors.New("wal: corrupt")
	// ErrMismatch marks a log whose kind or fingerprint does not match the
	// engine it is being opened for.
	ErrMismatch = errors.New("wal: log does not match engine")
	// ErrReadOnly is returned by mutating operations on a read-only log.
	ErrReadOnly = errors.New("wal: read-only")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")
)

// castagnoli is the CRC-32C table shared by records and snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxRecord bounds one record's payload, sharing the wire codec's frame
// bound so a corrupt length prefix cannot drive a huge allocation.
const MaxRecord = wire.MaxFrame

// Record is one logged decision: the submitted request paired with the
// engine's reaction, in the engine's global submission order. Exactly the
// fields of the matching kind are meaningful. A snapshot entry is a
// record's request half (AdmissionReq, Element, ClusterOp and ClusterTx)
// with the decision fields zero.
type Record struct {
	// Kind selects which workload's fields are set.
	Kind Kind
	// AdmissionReq and AdmissionDec hold a KindAdmission record.
	AdmissionReq wire.AdmissionRequest
	AdmissionDec wire.AdmissionDecision
	// Element and CoverDec hold a KindCover record.
	Element  int
	CoverDec wire.CoverDecision
	// ClusterOp and ClusterTx extend a KindCluster record: the operation
	// code (the wire.ClusterOp* codes) and, for protocol ops, the router's
	// transaction id. A cluster record reuses AdmissionReq for the
	// operation's edges (and an offer's cost) and AdmissionDec for its
	// decision.
	ClusterOp byte
	ClusterTx uint64
}

// Seq returns the record's engine-assigned sequence number (the admission
// decision ID or the cover arrival sequence).
func (r *Record) Seq() int64 {
	if r.Kind == KindCover {
		return int64(r.CoverDec.Seq)
	}
	return int64(r.AdmissionDec.ID)
}

// AppendRecord appends rec's on-disk encoding — uvarint length, payload,
// CRC-32C — to buf and returns the extended buffer. The payload reuses the
// wire codec's canonical frames, so encodings are unique: any valid record
// decodes and re-encodes to the same bytes (the property FuzzWALDecode
// asserts).
func AppendRecord(buf []byte, rec *Record) ([]byte, error) {
	pb := wire.GetBuffer()
	defer wire.PutBuffer(pb)
	p, err := appendPayload(pb.B[:0], rec)
	if err != nil {
		return buf, err
	}
	pb.B = p
	return appendFramed(buf, p), nil
}

// appendPayload encodes the record payload: kind byte, request frame,
// decision frame.
func appendPayload(p []byte, rec *Record) ([]byte, error) {
	p, err := appendRequest(append(p, byte(rec.Kind)), rec)
	if err != nil {
		return nil, err
	}
	if rec.Kind == KindCover {
		return wire.AppendCoverDecision(p, &rec.CoverDec), nil
	}
	return wire.AppendAdmissionDecision(p, &rec.AdmissionDec), nil
}

// appendRequest appends rec's request half as its wire request frame: the
// one request encoder, shared by record payloads and snapshot entries.
func appendRequest(p []byte, rec *Record) ([]byte, error) {
	switch rec.Kind {
	case KindAdmission:
		return wire.AppendAdmissionRequest(p, rec.AdmissionReq.Edges, rec.AdmissionReq.Cost), nil
	case KindCover:
		return wire.AppendCoverRequest(p, rec.Element), nil
	case KindCluster:
		return wire.AppendClusterOp(p, rec.ClusterOp, rec.ClusterTx, rec.AdmissionReq.Edges, rec.AdmissionReq.Cost)
	}
	return p, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
}

// decodeRequest resets rec to a record of the given kind and parses the
// request frame payload into its request half: appendRequest's inverse,
// shared by record payloads and snapshot entries. The decoded slices are
// freshly allocated, so a reused rec never aliases an earlier entry.
func decodeRequest(kind Kind, payload []byte, rec *Record) error {
	*rec = Record{Kind: kind}
	var err error
	switch kind {
	case KindAdmission:
		err = wire.DecodeAdmissionRequest(payload, &rec.AdmissionReq)
	case KindCover:
		rec.Element, err = wire.DecodeCoverRequest(payload)
	case KindCluster:
		rec.ClusterOp, rec.ClusterTx, rec.AdmissionReq, err = wire.DecodeClusterOp(payload)
	default:
		return fmt.Errorf("wal: unknown record kind %d", kind)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// appendFramed appends one length-prefixed CRC-protected blob (the framing
// shared by records and headers).
func appendFramed(buf, payload []byte) []byte {
	buf = appendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.Checksum(payload, castagnoli)
	return append(buf, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// DecodeRecord parses one record payload (the bytes between the length
// prefix and the CRC, already verified) into rec. Decoding is strict: the
// frames must carry the right tags in the right order with nothing
// trailing, and the embedded wire codec rejects non-minimal varints, so
// accepted payloads re-encode byte-identically.
func DecodeRecord(payload []byte, rec *Record) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record payload")
	}
	reqFrame, rest, err := wire.NextFrame(payload[1:])
	if err != nil {
		return fmt.Errorf("wal: record request frame: %w", err)
	}
	decFrame, rest, err := wire.NextFrame(rest)
	if err != nil {
		return fmt.Errorf("wal: record decision frame: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("wal: %d trailing bytes in record payload", len(rest))
	}
	if err := decodeRequest(Kind(payload[0]), reqFrame, rec); err != nil {
		return err
	}
	if rec.Kind == KindCover {
		err = wire.DecodeCoverDecision(decFrame, &rec.CoverDec)
	} else {
		err = wire.DecodeAdmissionDecision(decFrame, &rec.AdmissionDec)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// appendUvarint appends v as a minimal LEB128 uvarint (the wire codec's
// integer encoding).
func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// uvarint reads a minimal LEB128 uvarint from b, returning the value and
// the bytes consumed; n == 0 means truncated, n < 0 means invalid
// (non-minimal or overflowing) — the same strictness as the wire codec, so
// every encoding accepted anywhere in the log is canonical.
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		c := b[i]
		if i == 9 && c > 1 {
			return 0, -1 // overflows uint64
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, -1 // non-minimal: trailing zero group
			}
			return v, i + 1
		}
	}
	return 0, 0
}
