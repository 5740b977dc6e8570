package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"admission/internal/lca"
	"admission/internal/problem"
	"admission/internal/wire"
)

// FuzzSubmitDecode throws arbitrary bytes at the generic body decoder
// instantiated at the admission request type: it must never panic, and
// anything it accepts must be a well-formed non-empty batch — the
// service-level Validate pass downstream assumes exactly that shape.
// Run with
//
//	go test -fuzz FuzzSubmitDecode ./internal/server
func FuzzSubmitDecode(f *testing.F) {
	f.Add([]byte(`{"edges":[0,1],"cost":2.5}`))
	f.Add([]byte(`[{"edges":[0],"cost":1},{"edges":[1,2],"cost":3}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"edges":null,"cost":-1}`))
	f.Add([]byte(`[{"edges":[0`))
	f.Add([]byte(``))
	f.Add([]byte(`"a string"`))
	f.Add([]byte(`{"edges":[1e309],"cost":1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		reqs, err := DecodeJSONBatch[problem.Request](body)
		if err != nil {
			return // refused without panicking
		}
		if len(reqs) == 0 {
			t.Fatal("decoder accepted an empty submission")
		}
	})
}

// FuzzCoverDecode throws arbitrary bytes at the generic body decoder
// instantiated at the cover request type (bare element ids) with the same
// contract: no panics, and accepted bodies are non-empty integer batches.
// Run with
//
//	go test -fuzz FuzzCoverDecode ./internal/server
func FuzzCoverDecode(f *testing.F) {
	f.Add([]byte(`3`))
	f.Add([]byte(`[0,1,1,4]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[-1, 99999999999999999999]`))
	f.Add([]byte(`[1.5]`))
	f.Add([]byte(`{"elements":[1]}`))
	f.Add([]byte(`[`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		elems, err := DecodeJSONBatch[int](body)
		if err != nil {
			return // refused without panicking
		}
		if len(elems) == 0 {
			t.Fatal("decoder accepted an empty submission")
		}
	})
}

// FuzzQueryDecode throws arbitrary bytes at both request decoders of the
// query workload — the JSON body decoder instantiated at lca.Query and the
// binary submit-body loop over wire.QueryRequest frames. Neither may
// panic, accepted JSON batches must be non-empty and survive a
// marshal→decode round trip (unknown keys, such as a stale "fidelity", are
// ignored), and accepted wire bodies must re-encode to the identical bytes
// (canonical round trip).
// Run with
//
//	go test -fuzz FuzzQueryDecode ./internal/server
func FuzzQueryDecode(f *testing.F) {
	f.Add([]byte(`{"pos":3}`))
	f.Add([]byte(`[{"pos":0},{"pos":17}]`))
	f.Add([]byte(`[{"pos":1,"fidelity":"exact"}]`))
	f.Add([]byte(`[{"pos":1,"fidelity":"bogus"}]`))
	f.Add([]byte(`[{"pos":9e99}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	wb := wire.AppendSubmitHeader(nil, 2)
	wb = wire.AppendQueryRequest(wb, &wire.QueryRequest{Pos: 0})
	wb = wire.AppendQueryRequest(wb, &wire.QueryRequest{Pos: 17})
	f.Add(wb)
	f.Add(wb[:len(wb)-1])                     // truncated last frame
	f.Add(append(append([]byte{}, wb...), 1)) // trailing garbage

	f.Fuzz(func(t *testing.T, body []byte) {
		// JSON view.
		if qs, err := DecodeJSONBatch[lca.Query](body); err == nil {
			if len(qs) == 0 {
				t.Fatal("decoder accepted an empty submission")
			}
			re, err := json.Marshal(qs)
			if err != nil {
				t.Fatalf("accepted batch does not re-marshal: %v", err)
			}
			back, err := DecodeJSONBatch[lca.Query](re)
			if err != nil || !reflect.DeepEqual(back, qs) {
				t.Fatalf("JSON round trip drifted: %v\n  in  %+v\n  out %+v", err, qs, back)
			}
		}
		// Wire view: the server's submit loop, one query frame per item.
		count, rest, err := wire.ReadSubmitHeader(body)
		if err != nil {
			return
		}
		reenc := wire.AppendSubmitHeader(nil, count)
		for i := 0; i < count; i++ {
			var payload []byte
			if payload, rest, err = wire.NextFrame(rest); err != nil {
				return
			}
			var q wire.QueryRequest
			if err := wire.DecodeQueryRequest(payload, &q); err != nil {
				return
			}
			reenc = wire.AppendQueryRequest(reenc, &q)
		}
		if len(rest) != 0 {
			return
		}
		if !bytes.Equal(reenc, body) {
			t.Fatalf("accepted wire body is not canonical:\n  in  %x\n  out %x", body, reenc)
		}
	})
}
