package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"admission/internal/rng"
)

func TestQueryRequestRoundTrip(t *testing.T) {
	for _, q := range []QueryRequest{
		{Pos: 0},
		{Pos: 1},
		{Pos: 63},
		{Pos: 64},
		{Pos: 1 << 30},
	} {
		frame := AppendQueryRequest(nil, &q)
		payload := frameOne(t, frame, TagQueryRequest)
		var got QueryRequest
		if err := DecodeQueryRequest(payload, &got); err != nil {
			t.Fatalf("decode %+v: %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip: got %+v, want %+v", got, q)
		}
		if re := AppendQueryRequest(nil, &got); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode differs:\n got % x\nwant % x", re, frame)
		}
	}
}

func TestQueryDecisionRoundTrip(t *testing.T) {
	r := rng.New(53)
	var got QueryDecision // reused across iterations, like the client
	for i := 0; i < 500; i++ {
		d := QueryDecision{
			Pos:       int(r.Uint64() % 1e6),
			Accepted:  r.Uint64()%2 == 0,
			Preempted: randIntSlice(r, 8),
			Replayed:  int(r.Uint64() % 1e6),
		}
		if r.Uint64()%5 == 0 {
			d.Error = "lca: replay failed at position 7: boom"
		}
		frame := AppendQueryDecision(nil, &d)
		payload := frameOne(t, frame, TagQueryDecision)
		if err := DecodeQueryDecision(payload, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Pos != d.Pos || got.Accepted != d.Accepted || got.Replayed != d.Replayed || got.Error != d.Error ||
			!reflect.DeepEqual(normInts(got.Preempted), normInts(d.Preempted)) {
			t.Fatalf("round trip: got %+v, want %+v", got, d)
		}
		if re := AppendQueryDecision(nil, &got); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode differs:\n got % x\nwant % x", re, frame)
		}
	}
}

func TestQueryDecodeRejectsTruncations(t *testing.T) {
	q := QueryRequest{Pos: 300}
	qp, _, err := NextFrame(AppendQueryRequest(nil, &q))
	if err != nil {
		t.Fatal(err)
	}
	var qgot QueryRequest
	for cut := 0; cut < len(qp); cut++ {
		if err := DecodeQueryRequest(qp[:cut], &qgot); err == nil {
			t.Fatalf("query request decode accepted a %d/%d-byte truncation", cut, len(qp))
		}
	}
	d := QueryDecision{Pos: 9, Accepted: true, Preempted: []int{3, 4}, Replayed: 10, Error: "x"}
	dp, _, err := NextFrame(AppendQueryDecision(nil, &d))
	if err != nil {
		t.Fatal(err)
	}
	var dgot QueryDecision
	for cut := 0; cut < len(dp); cut++ {
		if err := DecodeQueryDecision(dp[:cut], &dgot); err == nil {
			t.Fatalf("query decision decode accepted a %d/%d-byte truncation", cut, len(dp))
		}
	}
}

func TestQueryDecodeRejectsNonCanonical(t *testing.T) {
	// A stale request that still carries a byte after the position (the
	// retired replay-layer selector) is refused.
	stale := []byte{TagQueryRequest, 0x22 /* pos=17 zigzag */, 0x01}
	var q QueryRequest
	if err := DecodeQueryRequest(stale, &q); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("stale selector byte: got %v, want ErrTrailingBytes", err)
	}
	// Unknown decision flag bits, the retired 0x02 included, are refused.
	dp, _, _ := NextFrame(AppendQueryDecision(nil, &QueryDecision{Pos: 1}))
	var d QueryDecision
	for _, bit := range []byte{1 << 1, 1 << 6} {
		mangled := append([]byte{}, dp...)
		mangled[2] |= bit // flags byte follows tag + 1-byte pos varint
		if err := DecodeQueryDecision(mangled, &d); !errors.Is(err, ErrNonMinimal) {
			t.Fatalf("flag bit 0x%02x: got %v, want ErrNonMinimal", bit, err)
		}
	}
	// Wrong tags and trailing garbage are refused.
	if err := DecodeQueryRequest(dp, &q); !errors.Is(err, ErrBadTag) {
		t.Fatalf("cross-type decode: got %v, want ErrBadTag", err)
	}
	qp, _, _ := NextFrame(AppendQueryRequest(nil, &QueryRequest{Pos: 5}))
	withTrailing := append(append([]byte{}, qp...), 0xAA)
	if err := DecodeQueryRequest(withTrailing, &q); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing garbage: got %v, want ErrTrailingBytes", err)
	}
}
