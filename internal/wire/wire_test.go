package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"admission/internal/rng"
)

// --- round-trip conformance ---------------------------------------------
//
// Every message type must survive encode → frame split → decode exactly,
// and re-encoding the decoded value must reproduce the original bytes
// (canonical encoding). These are the invariants the golden fixtures pin
// against drift and the server's codec negotiation relies on.

// frameOne seals exactly one message with fn and returns its payload,
// asserting the framing invariants: a parseable uvarint length prefix that
// matches the payload length, nothing left over, and the expected tag.
func frameOne(t *testing.T, frame []byte, tag byte) []byte {
	t.Helper()
	n, w := binary.Uvarint(frame)
	if w <= 0 {
		t.Fatalf("unparsable length prefix in % x", frame)
	}
	if int(n) != len(frame)-w {
		t.Fatalf("length prefix %d, payload is %d bytes", n, len(frame)-w)
	}
	payload, rest, err := NextFrame(frame)
	if err != nil {
		t.Fatalf("NextFrame: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after frame", len(rest))
	}
	if got, err := Tag(payload); err != nil || got != tag {
		t.Fatalf("tag = 0x%02x, %v; want 0x%02x", got, err, tag)
	}
	return payload
}

func randIntSlice(r *rng.RNG, max int) []int {
	n := int(r.Uint64() % uint64(max+1))
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(int64(r.Uint64())) % 100000
	}
	return xs
}

func TestAdmissionRequestRoundTrip(t *testing.T) {
	r := rng.New(41)
	for i := 0; i < 500; i++ {
		edges := randIntSlice(r, 12)
		cost := math.Abs(r.Float64()) * 1e6
		frame := AppendAdmissionRequest(nil, edges, cost)
		payload := frameOne(t, frame, TagAdmissionRequest)

		var got AdmissionRequest
		if err := DecodeAdmissionRequest(payload, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normInts(got.Edges), normInts(edges)) || got.Cost != cost {
			t.Fatalf("round trip: got %+v, want edges=%v cost=%v", got, edges, cost)
		}
		if re := AppendAdmissionRequest(nil, got.Edges, got.Cost); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode differs:\n got % x\nwant % x", re, frame)
		}
	}
}

func TestAdmissionDecisionRoundTrip(t *testing.T) {
	r := rng.New(43)
	var got AdmissionDecision // reused across iterations, like the client
	for i := 0; i < 500; i++ {
		d := AdmissionDecision{
			ID:         int(r.Uint64() % 1e6),
			Accepted:   r.Uint64()%2 == 0,
			CrossShard: r.Uint64()%3 == 0,
			Preempted:  randIntSlice(r, 8),
		}
		if r.Uint64()%5 == 0 {
			d.Error = "engine: shard queue closed"
		}
		frame := AppendAdmissionDecision(nil, &d)
		payload := frameOne(t, frame, TagAdmissionDecision)
		if err := DecodeAdmissionDecision(payload, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ID != d.ID || got.Accepted != d.Accepted || got.CrossShard != d.CrossShard ||
			got.Error != d.Error || !reflect.DeepEqual(normInts(got.Preempted), normInts(d.Preempted)) {
			t.Fatalf("round trip: got %+v, want %+v", got, d)
		}
		if re := AppendAdmissionDecision(nil, &got); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode differs:\n got % x\nwant % x", re, frame)
		}
	}
}

func TestCoverRequestRoundTrip(t *testing.T) {
	for _, elem := range []int{0, 1, 63, 64, 8191, 8192, 1 << 30} {
		frame := AppendCoverRequest(nil, elem)
		payload := frameOne(t, frame, TagCoverRequest)
		got, err := DecodeCoverRequest(payload)
		if err != nil {
			t.Fatalf("decode element %d: %v", elem, err)
		}
		if got != elem {
			t.Fatalf("round trip: got %d, want %d", got, elem)
		}
		if re := AppendCoverRequest(nil, got); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode differs for %d", elem)
		}
	}
}

func TestCoverDecisionRoundTrip(t *testing.T) {
	r := rng.New(47)
	var got CoverDecision
	for i := 0; i < 500; i++ {
		d := CoverDecision{
			Seq:       int(r.Uint64() % 1e6),
			Element:   int(r.Uint64() % 4096),
			Arrival:   1 + int(r.Uint64()%7),
			NewSets:   randIntSlice(r, 6),
			AddedCost: math.Abs(r.Float64()) * 100,
		}
		if r.Uint64()%7 == 0 {
			d.Error = "setcover: element saturated"
		}
		frame := AppendCoverDecision(nil, &d)
		payload := frameOne(t, frame, TagCoverDecision)
		if err := DecodeCoverDecision(payload, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Seq != d.Seq || got.Element != d.Element || got.Arrival != d.Arrival ||
			got.AddedCost != d.AddedCost || got.Error != d.Error ||
			!reflect.DeepEqual(normInts(got.NewSets), normInts(d.NewSets)) {
			t.Fatalf("round trip: got %+v, want %+v", got, d)
		}
		if re := AppendCoverDecision(nil, &got); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode differs:\n got % x\nwant % x", re, frame)
		}
	}
}

func TestStreamErrorRoundTrip(t *testing.T) {
	for _, msg := range []string{"", "service closed", "очень длинная ошибка with ünïcode"} {
		frame := AppendStreamError(nil, msg)
		payload := frameOne(t, frame, TagStreamError)
		got, err := DecodeStreamError(payload)
		if err != nil {
			t.Fatalf("decode %q: %v", msg, err)
		}
		if got != msg {
			t.Fatalf("round trip: got %q, want %q", got, msg)
		}
	}
}

// normInts maps nil to the empty slice so DeepEqual compares content only
// (decoders reuse capacity and may legitimately return either).
func normInts(xs []int) []int {
	if xs == nil {
		return []int{}
	}
	return xs
}

// --- negative-number and extreme-value coverage --------------------------

func TestSignedAndExtremeValues(t *testing.T) {
	d := AdmissionDecision{ID: -1, Preempted: []int{math.MinInt32, -7, 0, math.MaxInt32}}
	frame := AppendAdmissionDecision(nil, &d)
	var got AdmissionDecision
	if err := DecodeAdmissionDecision(frameOne(t, frame, TagAdmissionDecision), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != -1 || !reflect.DeepEqual(got.Preempted, d.Preempted) {
		t.Fatalf("got %+v, want %+v", got, d)
	}

	for _, cost := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		frame := AppendAdmissionRequest(nil, []int{1}, cost)
		var r AdmissionRequest
		if err := DecodeAdmissionRequest(frameOne(t, frame, TagAdmissionRequest), &r); err != nil {
			t.Fatalf("cost %v: %v", cost, err)
		}
		if math.Float64bits(r.Cost) != math.Float64bits(cost) {
			t.Fatalf("cost bits changed: got %v, want %v", r.Cost, cost)
		}
	}
	// NaN survives bit-exactly.
	nan := math.Float64frombits(0x7ff8000000000001)
	var r AdmissionRequest
	if err := DecodeAdmissionRequest(frameOne(t, AppendAdmissionRequest(nil, []int{1}, nan), TagAdmissionRequest), &r); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r.Cost) != math.Float64bits(nan) {
		t.Fatal("NaN payload bits changed across the codec")
	}
}

// --- hostile input: truncation, bad tags, trailing bytes ----------------

func TestDecodeRejectsTruncationsEverywhere(t *testing.T) {
	d := AdmissionDecision{ID: 9, Accepted: true, Preempted: []int{3, 4}, Error: "x"}
	frame := AppendAdmissionDecision(nil, &d)
	payload, _, err := NextFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var got AdmissionDecision
	for cut := 0; cut < len(payload); cut++ {
		if err := DecodeAdmissionDecision(payload[:cut], &got); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte truncation", cut, len(payload))
		}
	}
	cd := CoverDecision{Seq: 1, Element: 2, Arrival: 1, NewSets: []int{5}, AddedCost: 1.5}
	cframe := AppendCoverDecision(nil, &cd)
	cp, _, err := NextFrame(cframe)
	if err != nil {
		t.Fatal(err)
	}
	var cgot CoverDecision
	for cut := 0; cut < len(cp); cut++ {
		if err := DecodeCoverDecision(cp[:cut], &cgot); err == nil {
			t.Fatalf("cover decode accepted a %d/%d-byte truncation", cut, len(cp))
		}
	}
}

func TestDecodeRejectsWrongTagAndTrailing(t *testing.T) {
	frame := AppendCoverRequest(nil, 7)
	payload, _, _ := NextFrame(frame)
	var ad AdmissionDecision
	if err := DecodeAdmissionDecision(payload, &ad); !errors.Is(err, ErrBadTag) {
		t.Fatalf("cross-type decode: got %v, want ErrBadTag", err)
	}
	// A payload with valid content plus trailing garbage must be refused.
	withTrailing := append(append([]byte{}, payload...), 0xAA)
	if _, err := DecodeCoverRequest(withTrailing); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing garbage: got %v, want ErrTrailingBytes", err)
	}
}

func TestHostileLengthPrefixes(t *testing.T) {
	// A frame claiming more than MaxFrame must be refused up front.
	huge := binary.AppendUvarint(nil, MaxFrame+1)
	if _, _, err := NextFrame(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v", err)
	}
	// A frame claiming more bytes than exist must be refused, not read.
	lying := binary.AppendUvarint(nil, 1000)
	lying = append(lying, 0x01)
	if _, _, err := NextFrame(lying); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying frame: got %v", err)
	}
	// A submit header claiming an absurd count must be refused before any
	// allocation sized by it.
	absurd := binary.AppendUvarint(nil, math.MaxInt64)
	if _, _, err := ReadSubmitHeader(absurd); err == nil {
		t.Fatal("absurd submit count accepted")
	}
	// An element count inside a payload beyond the remaining bytes too.
	bad := []byte{TagAdmissionRequest}
	bad = binary.AppendUvarint(bad, 1<<40) // edge count with no edges behind it
	var req AdmissionRequest
	if err := DecodeAdmissionRequest(bad, &req); !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile element count: got %v", err)
	}
}

// --- submit bodies and frame streams ------------------------------------

func TestSubmitBodyRoundTrip(t *testing.T) {
	reqs := []AdmissionRequest{
		{Edges: []int{0, 1}, Cost: 2.5},
		{Edges: []int{7}, Cost: 1},
		{Edges: []int{3, 4, 5}, Cost: 0.25},
	}
	body := AppendSubmitHeader(nil, len(reqs))
	for _, r := range reqs {
		body = AppendAdmissionRequest(body, r.Edges, r.Cost)
	}
	count, rest, err := ReadSubmitHeader(body)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(reqs) {
		t.Fatalf("count %d, want %d", count, len(reqs))
	}
	for i := 0; i < count; i++ {
		var payload []byte
		payload, rest, err = NextFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var got AdmissionRequest
		if err := DecodeAdmissionRequest(payload, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Edges, reqs[i].Edges) || got.Cost != reqs[i].Cost {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, reqs[i])
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the declared frames", len(rest))
	}

	if _, _, err := ReadSubmitHeader(AppendSubmitHeader(nil, 0)); err == nil {
		t.Fatal("empty submission accepted")
	}
}

func TestFrameScannerStream(t *testing.T) {
	var stream []byte
	want := make([]AdmissionDecision, 100)
	for i := range want {
		want[i] = AdmissionDecision{ID: i, Accepted: i%2 == 0, Preempted: randIntSlice(rng.New(uint64(i)), 4)}
		stream = AppendAdmissionDecision(stream, &want[i])
	}
	sc := NewFrameScanner(bytes.NewReader(stream))
	var got AdmissionDecision
	for i := range want {
		payload, err := sc.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := DecodeAdmissionDecision(payload, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != want[i].ID || got.Accepted != want[i].Accepted {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want[i])
		}
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}

	// A stream cut mid-frame is an error, not a silent EOF.
	cut := NewFrameScanner(bytes.NewReader(stream[:len(stream)-3]))
	var err error
	for err == nil {
		_, err = cut.Next()
	}
	if err == io.EOF {
		t.Fatal("mid-frame truncation reported as clean EOF")
	}
}

// TestPooledFrameScanner reads two streams through pooled scanners: a
// returned scanner carries nothing of its previous stream into the next,
// and decoded decisions survive the scanner's return to the pool.
func TestPooledFrameScanner(t *testing.T) {
	streams := make([][]byte, 2)
	for s := range streams {
		for i := 0; i < 10; i++ {
			d := AdmissionDecision{ID: 100*s + i, Preempted: []int{s, i}}
			streams[s] = AppendAdmissionDecision(streams[s], &d)
		}
	}
	var kept []AdmissionDecision
	for s, stream := range streams {
		// Leave the first stream half read: the pool must not hand its
		// remaining frames to the next reader.
		frames := 10
		if s == 0 {
			frames = 5
		}
		sc := GetFrameScanner(bytes.NewReader(stream))
		for i := 0; i < frames; i++ {
			payload, err := sc.Next()
			if err != nil {
				t.Fatalf("stream %d frame %d: %v", s, i, err)
			}
			var d AdmissionDecision
			if err := DecodeAdmissionDecision(payload, &d); err != nil {
				t.Fatal(err)
			}
			kept = append(kept, d)
		}
		if s == 1 {
			if _, err := sc.Next(); err != io.EOF {
				t.Fatalf("after the last frame: %v, want io.EOF", err)
			}
		}
		PutFrameScanner(sc)
	}
	for k, d := range kept {
		s, i := k/5, k%5
		if k >= 5 {
			s, i = 1, k-5
		}
		if d.ID != 100*s+i || len(d.Preempted) != 2 || d.Preempted[0] != s || d.Preempted[1] != i {
			t.Fatalf("decision %d = %+v after its scanner was pooled, want ID %d preempted [%d %d]", k, d, 100*s+i, s, i)
		}
	}
}

// --- allocation regression ----------------------------------------------

// TestSteadyStateEncodeDecodeZeroAllocs is the allocation gate of ISSUE 6:
// with pooled buffers and reused decode targets (exactly how the server's
// response streamer and the client's read loop run), encoding plus
// decoding one decision of either workload allocates nothing.
func TestSteadyStateEncodeDecodeZeroAllocs(t *testing.T) {
	ad := AdmissionDecision{ID: 12345, Accepted: true, CrossShard: true, Preempted: []int{9, 41, 77}}
	cd := CoverDecision{Seq: 7, Element: 3, Arrival: 2, NewSets: []int{11, 12}, AddedCost: 3.5}
	buf := make([]byte, 0, 256)
	var adGot AdmissionDecision
	var cdGot CoverDecision
	adGot.Preempted = make([]int, 0, 8)
	cdGot.NewSets = make([]int, 0, 8)

	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendAdmissionDecision(buf[:0], &ad)
		payload, _, err := NextFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeAdmissionDecision(payload, &adGot); err != nil {
			t.Fatal(err)
		}
		buf = AppendCoverDecision(buf[:0], &cd)
		if payload, _, err = NextFrame(buf); err != nil {
			t.Fatal(err)
		}
		if err := DecodeCoverDecision(payload, &cdGot); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode+decode allocates %.1f/op, want 0", allocs)
	}

	// Request encoding is allocation-free too once the buffer has grown.
	req := []int{0, 5, 9}
	allocs = testing.AllocsPerRun(1000, func() {
		buf = AppendSubmitHeader(buf[:0], 1)
		buf = AppendAdmissionRequest(buf, req, 2.5)
	})
	if allocs != 0 {
		t.Fatalf("steady-state request encode allocates %.1f/op, want 0", allocs)
	}
}

// --- buffer pool --------------------------------------------------------

func TestBufferPoolReuseAndCap(t *testing.T) {
	b := GetBuffer()
	b.B = append(b.B[:0], 1, 2, 3)
	PutBuffer(b)
	// Oversized buffers must not return to the pool.
	big := &Buffer{B: make([]byte, 0, 8<<20)}
	PutBuffer(big) // must not panic; buffer is dropped
	got := GetBuffer()
	if cap(got.B) > 4<<20 {
		t.Fatal("pool retained an oversized buffer")
	}
	PutBuffer(got)
}
