package wire

import (
	"encoding/binary"
	"fmt"
)

// Cluster protocol tags (DESIGN.md §14). The cluster tier lifts the
// engine's two-phase cross-shard path onto the wire: a router submits a
// stream of cluster operations to each backend's /v1/cluster route. Local
// admissions reuse TagAdmissionRequest frames; the three tags below carry
// the reserve/commit/abort protocol messages. Every cluster operation is
// answered with a TagAdmissionDecision frame, so the response stream needs
// no new tags.
const (
	// TagClusterReserve frames phase 1 of a cross-backend admission: a
	// transaction id plus the edges (backend-local ids) to reserve one
	// capacity unit on.
	TagClusterReserve byte = 0x08
	// TagClusterCommit frames phase 2 keep: the named transaction's
	// reservations become permanent.
	TagClusterCommit byte = 0x09
	// TagClusterAbort frames phase 2 release: the named transaction's
	// reservations are returned.
	TagClusterAbort byte = 0x0A
)

// Cluster operation codes, one per operation a router submits to a
// backend. The cluster tier's OpKind and a cluster WAL record's op byte
// are these codes; on the wire and on disk an operation is named by its
// frame's tag instead.
const (
	// ClusterOpOffer is a backend-local admission offer, framed as an
	// admission request.
	ClusterOpOffer byte = 0
	// ClusterOpReserve is phase 1 of a cross-backend admission.
	ClusterOpReserve byte = 1
	// ClusterOpCommit finalizes a granted reservation.
	ClusterOpCommit byte = 2
	// ClusterOpAbort releases a granted reservation.
	ClusterOpAbort byte = 3
)

// AppendClusterOp appends one cluster operation as its request frame —
// an offer as an admission request, a protocol message under its cluster
// tag — and returns the extended buffer. Only the fields the operation
// carries are encoded: tx for reserves, commits and aborts, edges for
// offers and reserves, cost for offers. DecodeClusterOp of the frame
// re-encodes to the identical bytes.
func AppendClusterOp(buf []byte, op byte, tx uint64, edges []int, cost float64) ([]byte, error) {
	switch op {
	case ClusterOpOffer:
		return AppendAdmissionRequest(buf, edges, cost), nil
	case ClusterOpReserve:
		return AppendClusterReserve(buf, tx, edges), nil
	case ClusterOpCommit:
		return AppendClusterCommit(buf, tx), nil
	case ClusterOpAbort:
		return AppendClusterAbort(buf, tx), nil
	}
	return buf, fmt.Errorf("wire: unknown cluster op %d", op)
}

// DecodeClusterOp decodes one cluster operation frame payload, dispatching
// on its tag, into the fields AppendClusterOp takes; an offer's or a
// reserve's edges come back in req, and an offer's cost. The edge slice is
// freshly allocated, so nothing aliases payload.
func DecodeClusterOp(payload []byte) (op byte, tx uint64, req AdmissionRequest, err error) {
	tag, err := Tag(payload)
	if err != nil {
		return 0, 0, req, err
	}
	switch tag {
	case TagAdmissionRequest:
		err = DecodeAdmissionRequest(payload, &req)
		return ClusterOpOffer, 0, req, err
	case TagClusterReserve:
		var r ClusterReserve
		err = DecodeClusterReserve(payload, &r)
		return ClusterOpReserve, r.Tx, AdmissionRequest{Edges: r.Edges}, err
	case TagClusterCommit:
		tx, err = DecodeClusterTx(payload, TagClusterCommit)
		return ClusterOpCommit, tx, req, err
	case TagClusterAbort:
		tx, err = DecodeClusterTx(payload, TagClusterAbort)
		return ClusterOpAbort, tx, req, err
	}
	return 0, 0, req, fmt.Errorf("%w: 0x%02x is not a cluster operation", ErrBadTag, tag)
}

// ClusterReserve is the wire form of one cross-backend reservation
// request.
type ClusterReserve struct {
	// Tx is the router-assigned transaction id tying this reservation to
	// its later commit or abort.
	Tx uint64
	// Edges lists the backend-local edge ids to reserve, duplicate-free.
	Edges []int
}

// AppendClusterReserve appends one framed reservation request and returns
// the extended buffer.
func AppendClusterReserve(buf []byte, tx uint64, edges []int) []byte {
	mark := len(buf)
	buf = append(buf, TagClusterReserve)
	buf = binary.AppendUvarint(buf, tx)
	buf = appendInts(buf, edges)
	return sealFrame(buf, mark)
}

// AppendClusterCommit appends one framed commit message and returns the
// extended buffer.
func AppendClusterCommit(buf []byte, tx uint64) []byte {
	return appendClusterTx(buf, TagClusterCommit, tx)
}

// AppendClusterAbort appends one framed abort message and returns the
// extended buffer.
func AppendClusterAbort(buf []byte, tx uint64) []byte {
	return appendClusterTx(buf, TagClusterAbort, tx)
}

// appendClusterTx frames a tag-plus-transaction protocol message (the
// shared shape of commit and abort).
func appendClusterTx(buf []byte, tag byte, tx uint64) []byte {
	mark := len(buf)
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, tx)
	return sealFrame(buf, mark)
}

// DecodeClusterReserve decodes one reservation payload into d, reusing
// d.Edges' capacity.
func DecodeClusterReserve(payload []byte, d *ClusterReserve) error {
	r := reader{p: payload}
	if err := r.open(TagClusterReserve); err != nil {
		return err
	}
	var err error
	if d.Tx, err = r.uvarint(); err != nil {
		return err
	}
	if d.Edges, err = r.ints(d.Edges); err != nil {
		return err
	}
	return r.done()
}

// DecodeClusterTx decodes a commit or abort payload carrying the given tag
// and returns its transaction id.
func DecodeClusterTx(payload []byte, tag byte) (uint64, error) {
	r := reader{p: payload}
	if err := r.open(tag); err != nil {
		return 0, err
	}
	tx, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return tx, r.done()
}
