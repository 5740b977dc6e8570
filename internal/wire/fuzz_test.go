package wire

import (
	"bytes"
	"io"
	"testing"
)

// decodeSubmitAs mirrors the server's binary submit decode loop: header,
// then one frame per declared item, decoded by decodeFrame, with trailing
// bytes refused. It returns the number of items decoded (for the fuzz
// consistency check) or an error.
func decodeSubmitAs(body []byte, decodeFrame func(payload []byte) error) (int, error) {
	count, rest, err := ReadSubmitHeader(body)
	if err != nil {
		return 0, err
	}
	for i := 0; i < count; i++ {
		var payload []byte
		if payload, rest, err = NextFrame(rest); err != nil {
			return i, err
		}
		if err := decodeFrame(payload); err != nil {
			return i, err
		}
	}
	if len(rest) != 0 {
		return count, ErrTrailingBytes
	}
	return count, nil
}

// FuzzWireDecodeSubmit throws arbitrary bytes at the binary submit-body
// decoder for both workloads: hostile length prefixes, truncated frames
// and trailing garbage must all be refused with an error — never a panic,
// and never an allocation sized by an attacker-controlled count (the
// decoder bounds every count by the remaining bytes before allocating).
// Anything accepted must re-encode to the identical bytes (canonical
// round trip). Run with
//
//	go test -fuzz FuzzWireDecodeSubmit ./internal/wire
func FuzzWireDecodeSubmit(f *testing.F) {
	good := AppendSubmitHeader(nil, 2)
	good = AppendAdmissionRequest(good, []int{0, 1}, 2.5)
	good = AppendAdmissionRequest(good, []int{3}, 1)
	f.Add(good)
	cov := AppendSubmitHeader(nil, 3)
	for _, e := range []int{0, 4, 4} {
		cov = AppendCoverRequest(cov, e)
	}
	f.Add(cov)
	qry := AppendSubmitHeader(nil, 2)
	qry = AppendQueryRequest(qry, &QueryRequest{Pos: 0})
	qry = AppendQueryRequest(qry, &QueryRequest{Pos: 17})
	f.Add(qry)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // absurd count
	f.Add(good[:len(good)-2])                                                 // truncated last frame
	f.Add(append(append([]byte{}, good...), 0xAA))                            // trailing garbage

	f.Fuzz(func(t *testing.T, body []byte) {
		// Admission view: accepted bodies must round-trip canonically.
		var reenc []byte
		n, err := decodeSubmitAs(body, func(payload []byte) error {
			var req AdmissionRequest
			if err := DecodeAdmissionRequest(payload, &req); err != nil {
				return err
			}
			reenc = AppendAdmissionRequest(reenc, req.Edges, req.Cost)
			return nil
		})
		if err == nil {
			if n == 0 {
				t.Fatal("decoder accepted an empty submission")
			}
			full := AppendSubmitHeader(nil, n)
			full = append(full, reenc...)
			if !bytes.Equal(full, body) {
				t.Fatalf("accepted body is not canonical:\n  in  %x\n  out %x", body, full)
			}
		}
		// Cover view: same bytes through the other workload's decoder must
		// also never panic.
		_, _ = decodeSubmitAs(body, func(payload []byte) error {
			_, err := DecodeCoverRequest(payload)
			return err
		})
		// Query view: accepted bodies must also round-trip canonically.
		var qreenc []byte
		qn, qerr := decodeSubmitAs(body, func(payload []byte) error {
			var q QueryRequest
			if err := DecodeQueryRequest(payload, &q); err != nil {
				return err
			}
			qreenc = AppendQueryRequest(qreenc, &q)
			return nil
		})
		if qerr == nil && qn > 0 {
			full := AppendSubmitHeader(nil, qn)
			full = append(full, qreenc...)
			if !bytes.Equal(full, body) {
				t.Fatalf("accepted query body is not canonical:\n  in  %x\n  out %x", body, full)
			}
		}
	})
}

// FuzzWireDecodeDecision throws arbitrary bytes at the client's framed
// decision-stream reader: FrameScanner plus the per-tag decision decoders,
// exactly the loop Client.Submit runs over a response body. Hostile length
// prefixes must fail before allocating, mid-frame truncation must not be
// reported as a clean EOF, and no input may panic. Run with
//
//	go test -fuzz FuzzWireDecodeDecision ./internal/wire
func FuzzWireDecodeDecision(f *testing.F) {
	var stream []byte
	stream = AppendAdmissionDecision(stream, &AdmissionDecision{ID: 1, Accepted: true, Preempted: []int{0}})
	stream = AppendCoverDecision(stream, &CoverDecision{Seq: 2, Element: 1, Arrival: 1, NewSets: []int{3}, AddedCost: 2})
	stream = AppendStreamError(stream, "boom")
	stream = AppendQueryDecision(stream, &QueryDecision{Pos: 4, Accepted: true, Preempted: []int{1}, Replayed: 5})
	f.Add(stream)
	f.Add(stream[:len(stream)-1])
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f}) // huge frame length
	f.Add([]byte{0x05, 0x01, 0x02, 0x03, 0x04, 0x05})
	f.Add([]byte{0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewFrameScanner(bytes.NewReader(data))
		var ad AdmissionDecision
		var cd CoverDecision
		var qd QueryDecision
		for frames := 0; ; frames++ {
			payload, err := sc.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // refused without panicking
			}
			tag, err := Tag(payload)
			if err != nil {
				t.Fatal("scanner returned an empty payload without error")
			}
			switch tag {
			case TagAdmissionDecision:
				if err := DecodeAdmissionDecision(payload, &ad); err == nil {
					// Accepted decisions re-encode canonically.
					re := AppendAdmissionDecision(nil, &ad)
					rp, _, _ := NextFrame(re)
					if !bytes.Equal(rp, payload) {
						t.Fatalf("non-canonical admission decision accepted: % x", payload)
					}
				}
			case TagCoverDecision:
				if err := DecodeCoverDecision(payload, &cd); err == nil {
					re := AppendCoverDecision(nil, &cd)
					rp, _, _ := NextFrame(re)
					if !bytes.Equal(rp, payload) {
						t.Fatalf("non-canonical cover decision accepted: % x", payload)
					}
				}
			case TagQueryDecision:
				if err := DecodeQueryDecision(payload, &qd); err == nil {
					re := AppendQueryDecision(nil, &qd)
					rp, _, _ := NextFrame(re)
					if !bytes.Equal(rp, payload) {
						t.Fatalf("non-canonical query decision accepted: % x", payload)
					}
				}
			case TagStreamError:
				_, _ = DecodeStreamError(payload)
			default:
				// Unknown tags are the client's problem to refuse; the
				// scanner just frames them. Nothing to decode.
			}
			if frames > 1<<16 {
				return // bounded work per input
			}
		}
	})
}
