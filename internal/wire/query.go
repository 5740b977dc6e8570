package wire

import (
	"encoding/binary"
	"fmt"
)

// flagQueryAccepted is the query decision's only flag bit; decoders
// refuse any other.
const flagQueryAccepted byte = 1 << 0

// QueryRequest is the wire form of one decision query (DESIGN.md §13).
type QueryRequest struct {
	// Pos is the queried arrival position.
	Pos int
}

// QueryDecision is the wire form of one reconstructed query decision line.
type QueryDecision struct {
	// Pos echoes the queried position (the streaming engine's ID for the
	// same arrival).
	Pos int
	// Accepted reports admission at Pos.
	Accepted bool
	// Preempted lists global positions evicted by this decision.
	Preempted []int
	// Replayed is the length of the arrival prefix the answer reflects
	// (Pos+1).
	Replayed int
	// Error carries a per-query failure ("" for none).
	Error string
}

// AppendQueryRequest appends one framed decision query and returns the
// extended buffer. It never allocates beyond growing buf.
func AppendQueryRequest(buf []byte, q *QueryRequest) []byte {
	mark := len(buf)
	buf = append(buf, TagQueryRequest)
	buf = binary.AppendVarint(buf, int64(q.Pos))
	return sealFrame(buf, mark)
}

// AppendQueryDecision appends one framed query decision and returns the
// extended buffer.
func AppendQueryDecision(buf []byte, d *QueryDecision) []byte {
	mark := len(buf)
	buf = append(buf, TagQueryDecision)
	buf = binary.AppendVarint(buf, int64(d.Pos))
	var flags byte
	if d.Accepted {
		flags |= flagQueryAccepted
	}
	buf = append(buf, flags)
	buf = appendInts(buf, d.Preempted)
	buf = binary.AppendUvarint(buf, uint64(d.Replayed))
	buf = appendString(buf, d.Error)
	return sealFrame(buf, mark)
}

// DecodeQueryRequest decodes one decision-query payload into q. Any byte
// after the position is refused (ErrTrailingBytes), so accepted payloads
// re-encode to identical bytes.
func DecodeQueryRequest(payload []byte, q *QueryRequest) error {
	r := reader{p: payload}
	if err := r.open(TagQueryRequest); err != nil {
		return err
	}
	var err error
	if q.Pos, err = r.varint(); err != nil {
		return err
	}
	return r.done()
}

// DecodeQueryDecision decodes one query decision payload into d, reusing
// d.Preempted's capacity.
func DecodeQueryDecision(payload []byte, d *QueryDecision) error {
	r := reader{p: payload}
	if err := r.open(TagQueryDecision); err != nil {
		return err
	}
	var err error
	if d.Pos, err = r.varint(); err != nil {
		return err
	}
	if r.off >= len(r.p) {
		return ErrTruncated
	}
	flags := r.p[r.off]
	r.off++
	if flags&^flagQueryAccepted != 0 {
		return fmt.Errorf("%w: unknown flag bits 0x%02x", ErrNonMinimal, flags)
	}
	d.Accepted = flags&flagQueryAccepted != 0
	if d.Preempted, err = r.ints(d.Preempted); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	d.Replayed = int(n)
	if d.Error, err = r.str(); err != nil {
		return err
	}
	return r.done()
}
