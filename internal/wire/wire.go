// Package wire is the length-prefixed binary wire protocol of the serving
// layer (DESIGN.md §11) — the second codec negotiated by internal/server
// next to JSON, built for the hot path: a batch submission is one framed
// body and its response one framed decision stream, with pooled buffers so
// steady-state encoding and decoding allocate nothing per decision.
//
// Framing (all multi-byte integers are varints, see below):
//
//	frame  := uvarint(len(payload)) payload      // len ≤ MaxFrame
//	payload := tag(1 byte) body                  // tag names the message
//	submit := uvarint(count) frame*count         // HTTP request body
//	stream := frame*n                            // HTTP response body
//
// Varint rules: unsigned fields use LEB128 base-128 varints
// (encoding/binary uvarint); signed fields use the zigzag encoding
// (encoding/binary varint); float64 fields are the 8 IEEE-754 bits in
// little-endian order; strings and int slices are length-prefixed with a
// uvarint count. Encoding is canonical and decoding strict: encoders emit
// minimal-length varints, decoders reject redundant varint bytes and
// unknown flag bits (ErrNonMinimal), so every message has exactly one
// byte representation — decode followed by re-encode reproduces the input
// (the property the golden fixtures and fuzz targets pin).
//
// Safety contract: decoders never trust a length prefix. A frame length
// beyond MaxFrame, a count that could not fit in the remaining bytes, a
// truncated body, or trailing bytes after a complete message all return an
// error before any allocation sized by attacker-controlled input — the
// fuzz targets FuzzWireDecodeSubmit and FuzzWireDecodeDecision hold the
// package to exactly that.
//
// Concurrency contract: encode/decode functions are pure over their
// arguments; Buffer and FrameScanner values are single-goroutine, while
// GetBuffer/PutBuffer are safe everywhere (sync.Pool).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// ContentType is the MIME type that negotiates this protocol on a
// /v1/<workload> submission (and labels its framed response); any other
// Content-Type gets the JSON codec.
const ContentType = "application/x-acwire"

// MaxFrame bounds one frame's payload (16 MiB). Decoders reject larger
// length prefixes before reading or allocating anything.
const MaxFrame = 16 << 20

// Message tags (the first payload byte).
const (
	// TagAdmissionRequest frames one admission request (§2/§3 arrival).
	TagAdmissionRequest byte = 0x01
	// TagAdmissionDecision frames one admission decision line.
	TagAdmissionDecision byte = 0x02
	// TagCoverRequest frames one set cover element arrival (§§4–5).
	TagCoverRequest byte = 0x03
	// TagCoverDecision frames one cover "sets chosen" decision line.
	TagCoverDecision byte = 0x04
	// TagStreamError frames a whole-batch failure line (the binary
	// counterpart of the JSON path's {"error": ...} line).
	TagStreamError byte = 0x05
	// TagQueryRequest frames one local-computation decision query
	// (DESIGN.md §13).
	TagQueryRequest byte = 0x06
	// TagQueryDecision frames one reconstructed query decision line.
	TagQueryDecision byte = 0x07
)

// Admission decision flag bits.
const (
	flagAccepted   byte = 1 << 0
	flagCrossShard byte = 1 << 1
)

// AdmissionRequest is the wire form of one admission request.
type AdmissionRequest struct {
	// Edges is the request's duplicate-free edge set.
	Edges []int
	// Cost is the request's benefit p_i.
	Cost float64
}

// AdmissionDecision is the wire form of one admission decision line.
type AdmissionDecision struct {
	// ID is the engine-assigned global request ID.
	ID int
	// Accepted reports admission.
	Accepted bool
	// CrossShard reports the two-phase cross-shard path.
	CrossShard bool
	// Preempted lists global IDs evicted by this decision.
	Preempted []int
	// Error carries a per-request engine failure ("" for none).
	Error string
}

// CoverDecision is the wire form of one cover decision line.
type CoverDecision struct {
	// Seq is the engine-assigned global arrival sequence number.
	Seq int
	// Element is the element that arrived.
	Element int
	// Arrival is k: how many times the element has now arrived.
	Arrival int
	// NewSets lists global ids of sets newly bought by this arrival.
	NewSets []int
	// AddedCost is the total cost of NewSets.
	AddedCost float64
	// Error carries a per-arrival refusal ("" for none).
	Error string
}

// --- encoding -----------------------------------------------------------

// sealFrame inserts the uvarint length prefix in front of the payload
// appended to buf since mark, shifting the payload right in place (a
// memmove over a short payload, cheaper than a second buffer).
func sealFrame(buf []byte, mark int) []byte {
	var hdr [binary.MaxVarintLen64]byte
	hl := binary.PutUvarint(hdr[:], uint64(len(buf)-mark))
	buf = append(buf, hdr[:hl]...)
	copy(buf[mark+hl:], buf[mark:len(buf)-hl])
	copy(buf[mark:], hdr[:hl])
	return buf
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendInts appends a uvarint count followed by zigzag varint elements.
func appendInts(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

// appendFloat appends the 8 little-endian IEEE-754 bits of f.
func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendAdmissionRequest appends one framed admission request and returns
// the extended buffer. It never allocates beyond growing buf.
func AppendAdmissionRequest(buf []byte, edges []int, cost float64) []byte {
	mark := len(buf)
	buf = append(buf, TagAdmissionRequest)
	buf = appendInts(buf, edges)
	buf = appendFloat(buf, cost)
	return sealFrame(buf, mark)
}

// AppendAdmissionDecision appends one framed admission decision and
// returns the extended buffer.
func AppendAdmissionDecision(buf []byte, d *AdmissionDecision) []byte {
	mark := len(buf)
	buf = append(buf, TagAdmissionDecision)
	buf = binary.AppendVarint(buf, int64(d.ID))
	var flags byte
	if d.Accepted {
		flags |= flagAccepted
	}
	if d.CrossShard {
		flags |= flagCrossShard
	}
	buf = append(buf, flags)
	buf = appendInts(buf, d.Preempted)
	buf = appendString(buf, d.Error)
	return sealFrame(buf, mark)
}

// AppendCoverRequest appends one framed cover element arrival and returns
// the extended buffer.
func AppendCoverRequest(buf []byte, element int) []byte {
	mark := len(buf)
	buf = append(buf, TagCoverRequest)
	buf = binary.AppendVarint(buf, int64(element))
	return sealFrame(buf, mark)
}

// AppendCoverDecision appends one framed cover decision and returns the
// extended buffer.
func AppendCoverDecision(buf []byte, d *CoverDecision) []byte {
	mark := len(buf)
	buf = append(buf, TagCoverDecision)
	buf = binary.AppendVarint(buf, int64(d.Seq))
	buf = binary.AppendVarint(buf, int64(d.Element))
	buf = binary.AppendVarint(buf, int64(d.Arrival))
	buf = appendInts(buf, d.NewSets)
	buf = appendFloat(buf, d.AddedCost)
	buf = appendString(buf, d.Error)
	return sealFrame(buf, mark)
}

// AppendStreamError appends one framed whole-batch error line and returns
// the extended buffer.
func AppendStreamError(buf []byte, msg string) []byte {
	mark := len(buf)
	buf = append(buf, TagStreamError)
	buf = appendString(buf, msg)
	return sealFrame(buf, mark)
}

// AppendSubmitHeader opens a submit body: the uvarint count of the request
// frames that follow.
func AppendSubmitHeader(buf []byte, count int) []byte {
	return binary.AppendUvarint(buf, uint64(count))
}

// --- decoding -----------------------------------------------------------

// Decode errors. Decoders wrap them with positional context; use
// errors.Is to classify.
var (
	// ErrTruncated marks a message or frame shorter than its own length
	// and count prefixes claim.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrFrameTooLarge marks a frame length prefix beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// ErrTrailingBytes marks leftover bytes after a complete message.
	ErrTrailingBytes = errors.New("wire: trailing bytes")
	// ErrBadTag marks a payload whose tag byte is not the expected one.
	ErrBadTag = errors.New("wire: unexpected message tag")
	// ErrNonMinimal marks a varint with redundant leading-zero groups or a
	// flags byte with unknown bits: decoding is strict, so every message
	// has exactly one byte representation (what the golden fixtures and
	// the canonical-round-trip fuzz property rely on).
	ErrNonMinimal = errors.New("wire: non-canonical encoding")
)

// reader is a bounds-checked cursor over one in-memory payload.
type reader struct {
	p   []byte
	off int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	if n > 1 && r.p[r.off+n-1] == 0 {
		return 0, ErrNonMinimal
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int, error) {
	v, n := binary.Varint(r.p[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	if n > 1 && r.p[r.off+n-1] == 0 {
		return 0, ErrNonMinimal
	}
	r.off += n
	return int(v), nil
}

func (r *reader) float() (float64, error) {
	if len(r.p)-r.off < 8 {
		return 0, ErrTruncated
	}
	bits := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return math.Float64frombits(bits), nil
}

// str decodes a length-prefixed string; the result copies out of the
// payload (payload buffers are pooled and reused).
func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.p)-r.off) {
		return "", ErrTruncated
	}
	s := string(r.p[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// ints decodes a count-prefixed int slice into dst (reusing its capacity);
// the count is checked against the remaining bytes (≥ 1 byte per element)
// before any allocation, so a hostile count cannot over-allocate.
func (r *reader) ints(dst []int) ([]int, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.p)-r.off) {
		return nil, ErrTruncated
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// open checks the tag byte and positions the cursor after it.
func (r *reader) open(tag byte) error {
	if len(r.p) == 0 {
		return ErrTruncated
	}
	if r.p[0] != tag {
		return fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrBadTag, r.p[0], tag)
	}
	r.off = 1
	return nil
}

// done rejects trailing bytes after a fully decoded payload.
func (r *reader) done() error {
	if r.off != len(r.p) {
		return fmt.Errorf("%w: %d after payload", ErrTrailingBytes, len(r.p)-r.off)
	}
	return nil
}

// Tag returns a payload's message tag.
func Tag(payload []byte) (byte, error) {
	if len(payload) == 0 {
		return 0, ErrTruncated
	}
	return payload[0], nil
}

// DecodeAdmissionRequest decodes one admission request payload into d,
// reusing d.Edges' capacity.
func DecodeAdmissionRequest(payload []byte, d *AdmissionRequest) error {
	r := reader{p: payload}
	if err := r.open(TagAdmissionRequest); err != nil {
		return err
	}
	var err error
	if d.Edges, err = r.ints(d.Edges); err != nil {
		return err
	}
	if d.Cost, err = r.float(); err != nil {
		return err
	}
	return r.done()
}

// DecodeAdmissionDecision decodes one admission decision payload into d,
// reusing d.Preempted's capacity.
func DecodeAdmissionDecision(payload []byte, d *AdmissionDecision) error {
	r := reader{p: payload}
	if err := r.open(TagAdmissionDecision); err != nil {
		return err
	}
	var err error
	if d.ID, err = r.varint(); err != nil {
		return err
	}
	if r.off >= len(r.p) {
		return ErrTruncated
	}
	flags := r.p[r.off]
	r.off++
	if flags&^(flagAccepted|flagCrossShard) != 0 {
		return fmt.Errorf("%w: unknown flag bits 0x%02x", ErrNonMinimal, flags)
	}
	d.Accepted = flags&flagAccepted != 0
	d.CrossShard = flags&flagCrossShard != 0
	if d.Preempted, err = r.ints(d.Preempted); err != nil {
		return err
	}
	if d.Error, err = r.str(); err != nil {
		return err
	}
	return r.done()
}

// DecodeCoverRequest decodes one cover element arrival payload.
func DecodeCoverRequest(payload []byte) (int, error) {
	r := reader{p: payload}
	if err := r.open(TagCoverRequest); err != nil {
		return 0, err
	}
	elem, err := r.varint()
	if err != nil {
		return 0, err
	}
	return elem, r.done()
}

// DecodeCoverDecision decodes one cover decision payload into d, reusing
// d.NewSets' capacity.
func DecodeCoverDecision(payload []byte, d *CoverDecision) error {
	r := reader{p: payload}
	if err := r.open(TagCoverDecision); err != nil {
		return err
	}
	var err error
	if d.Seq, err = r.varint(); err != nil {
		return err
	}
	if d.Element, err = r.varint(); err != nil {
		return err
	}
	if d.Arrival, err = r.varint(); err != nil {
		return err
	}
	if d.NewSets, err = r.ints(d.NewSets); err != nil {
		return err
	}
	if d.AddedCost, err = r.float(); err != nil {
		return err
	}
	if d.Error, err = r.str(); err != nil {
		return err
	}
	return r.done()
}

// DecodeStreamError decodes one whole-batch error payload.
func DecodeStreamError(payload []byte) (string, error) {
	r := reader{p: payload}
	if err := r.open(TagStreamError); err != nil {
		return "", err
	}
	msg, err := r.str()
	if err != nil {
		return "", err
	}
	return msg, r.done()
}

// --- batch and stream splitting -----------------------------------------

// ReadSubmitHeader parses a submit body's item count and returns the
// remaining bytes holding the request frames. The count is bounded against
// the remaining length (every frame takes ≥ 2 bytes) before the caller
// sizes anything by it.
func ReadSubmitHeader(body []byte) (count int, rest []byte, err error) {
	n, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, nil, fmt.Errorf("submit header: %w", ErrTruncated)
	}
	if w > 1 && body[w-1] == 0 {
		return 0, nil, fmt.Errorf("submit header: %w", ErrNonMinimal)
	}
	rest = body[w:]
	if n == 0 {
		return 0, nil, errors.New("wire: empty submission")
	}
	if n > uint64(len(rest))/2 {
		return 0, nil, fmt.Errorf("submit header: %w: %d frames claimed in %d bytes", ErrTruncated, n, len(rest))
	}
	return int(n), rest, nil
}

// NextFrame splits the next frame's payload off an in-memory body. The
// payload aliases body — no copy.
func NextFrame(body []byte) (payload, rest []byte, err error) {
	n, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, nil, ErrTruncated
	}
	if w > 1 && body[w-1] == 0 {
		return nil, nil, fmt.Errorf("frame length: %w", ErrNonMinimal)
	}
	if n > MaxFrame {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n == 0 {
		return nil, nil, errors.New("wire: empty frame")
	}
	if n > uint64(len(body)-w) {
		return nil, nil, fmt.Errorf("frame: %w: %d claimed, %d left", ErrTruncated, n, len(body)-w)
	}
	return body[w : w+int(n)], body[w+int(n):], nil
}

// FrameScanner reads a stream of frames from r, reusing one internal
// payload buffer across frames (the returned payload is valid only until
// the next Next call). A hostile length prefix fails before allocation.
type FrameScanner struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameScanner wraps r for frame-at-a-time reading.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{br: bufio.NewReaderSize(r, 64<<10)}
}

// Reset repoints the scanner at a new stream, keeping its buffers.
func (s *FrameScanner) Reset(r io.Reader) { s.br.Reset(r) }

// readUvarintStrict reads one minimally-encoded uvarint from the stream.
// io.EOF before the first byte is the clean end-of-stream signal; EOF
// mid-varint is ErrTruncated.
func (s *FrameScanner) readUvarintStrict() (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := s.br.ReadByte()
		if err != nil {
			if i == 0 && err == io.EOF {
				return 0, io.EOF
			}
			return 0, ErrTruncated
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errors.New("wire: uvarint overflows 64 bits")
			}
			if i > 0 && b == 0 {
				return 0, ErrNonMinimal
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, errors.New("wire: uvarint overflows 64 bits")
}

// Next returns the next frame's payload, or io.EOF at a clean stream end
// (EOF exactly on a frame boundary). Any other shortfall is an error.
func (s *FrameScanner) Next() ([]byte, error) {
	n, err := s.readUvarintStrict()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary
		}
		return nil, fmt.Errorf("frame length: %w", err)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n == 0 {
		return nil, errors.New("wire: empty frame")
	}
	if uint64(cap(s.buf)) < n {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:n]
	if _, err := io.ReadFull(s.br, s.buf); err != nil {
		return nil, fmt.Errorf("frame body: %w", ErrTruncated)
	}
	return s.buf, nil
}

// --- buffer pool --------------------------------------------------------

// Buffer is a pooled byte buffer for frame assembly (request bodies on the
// client, response streams on the server). Use B[:0] as the append target
// and store the grown slice back before PutBuffer.
type Buffer struct {
	// B is the backing slice.
	B []byte
}

var bufPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 32<<10)} },
}

// GetBuffer takes a buffer from the pool, its backing slice emptied but
// with whatever capacity it retired with.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// PutBuffer returns a buffer to the pool. Oversized buffers (past 4 MiB)
// are dropped so one giant submission does not pin memory forever.
func PutBuffer(b *Buffer) {
	if cap(b.B) > 4<<20 {
		return
	}
	bufPool.Put(b)
}

// scannerPool recycles FrameScanners: each carries a 64 KiB read buffer,
// which would otherwise be a client's dominant allocation per exchange.
var scannerPool = sync.Pool{New: func() any { return NewFrameScanner(nil) }}

// GetFrameScanner takes a scanner from the pool and points it at r. The
// payloads it returns die with PutFrameScanner, so decoders must copy
// whatever they keep (every Decode* in this package does).
func GetFrameScanner(r io.Reader) *FrameScanner {
	s := scannerPool.Get().(*FrameScanner)
	s.Reset(r)
	return s
}

// PutFrameScanner returns a scanner to the pool, releasing its stream.
// An oversized payload buffer (past 4 MiB) is dropped first.
func PutFrameScanner(s *FrameScanner) {
	s.Reset(nil)
	if cap(s.buf) > 4<<20 {
		s.buf = nil
	}
	scannerPool.Put(s)
}
