package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden wire fixtures pin the byte-level format: one committed hex
// dump per message type (testdata/golden/*.hex), each produced from a
// fixed canonical message. Re-encoding the canonical message must
// reproduce the committed bytes exactly, and decoding the committed bytes
// must reproduce the canonical message — so any edit to the codec that
// shifts the format fails loudly here instead of silently breaking old
// clients. This mirrors the API.txt pinning idiom: regenerate
// deliberately with
//
//	go test ./internal/wire -run TestGoldenWireFixtures -update-golden
//
// and review the diff like an API change.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire fixtures")

// goldenFixtures enumerates the canonical message per type. Frames are
// produced by encode; decode must reproduce the canonical value (checked
// by check).
func goldenFixtures(t *testing.T) []struct {
	name   string
	encode func() []byte
	check  func(t *testing.T, frame []byte)
} {
	admReq := AdmissionRequest{Edges: []int{0, 3, 7}, Cost: 2.5}
	admDec := AdmissionDecision{ID: 42, Accepted: true, CrossShard: true, Preempted: []int{7, 9}}
	admErr := AdmissionDecision{ID: 43, Error: "engine: request refused"}
	covDec := CoverDecision{Seq: 5, Element: 3, Arrival: 2, NewSets: []int{1, 8}, AddedCost: 3.25}
	const covElem = 12
	const streamMsg = "service closed"
	clReserve := ClusterReserve{Tx: 9, Edges: []int{1, 4, 6}}
	const clTx = 300
	qryReq := QueryRequest{Pos: 17}
	qryDec := QueryDecision{Pos: 17, Accepted: true, Preempted: []int{4, 11}, Replayed: 9}
	qryErr := QueryDecision{Pos: 3, Replayed: 4, Error: "lca: replay failed at position 2: boom"}

	payloadOf := func(t *testing.T, frame []byte) []byte {
		t.Helper()
		payload, rest, err := NextFrame(frame)
		if err != nil {
			t.Fatalf("golden frame unreadable: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("golden frame has %d trailing bytes", len(rest))
		}
		return payload
	}

	return []struct {
		name   string
		encode func() []byte
		check  func(t *testing.T, frame []byte)
	}{
		{
			name:   "admission_request",
			encode: func() []byte { return AppendAdmissionRequest(nil, admReq.Edges, admReq.Cost) },
			check: func(t *testing.T, frame []byte) {
				var got AdmissionRequest
				if err := DecodeAdmissionRequest(payloadOf(t, frame), &got); err != nil {
					t.Fatal(err)
				}
				if got.Cost != admReq.Cost || len(got.Edges) != len(admReq.Edges) {
					t.Fatalf("decoded %+v, want %+v", got, admReq)
				}
			},
		},
		{
			name:   "admission_decision",
			encode: func() []byte { return AppendAdmissionDecision(nil, &admDec) },
			check: func(t *testing.T, frame []byte) {
				var got AdmissionDecision
				if err := DecodeAdmissionDecision(payloadOf(t, frame), &got); err != nil {
					t.Fatal(err)
				}
				if got.ID != admDec.ID || !got.Accepted || !got.CrossShard || len(got.Preempted) != 2 {
					t.Fatalf("decoded %+v, want %+v", got, admDec)
				}
			},
		},
		{
			name:   "admission_decision_error",
			encode: func() []byte { return AppendAdmissionDecision(nil, &admErr) },
			check: func(t *testing.T, frame []byte) {
				var got AdmissionDecision
				if err := DecodeAdmissionDecision(payloadOf(t, frame), &got); err != nil {
					t.Fatal(err)
				}
				if got.ID != admErr.ID || got.Error != admErr.Error {
					t.Fatalf("decoded %+v, want %+v", got, admErr)
				}
			},
		},
		{
			name:   "cover_request",
			encode: func() []byte { return AppendCoverRequest(nil, covElem) },
			check: func(t *testing.T, frame []byte) {
				got, err := DecodeCoverRequest(payloadOf(t, frame))
				if err != nil {
					t.Fatal(err)
				}
				if got != covElem {
					t.Fatalf("decoded element %d, want %d", got, covElem)
				}
			},
		},
		{
			name:   "cover_decision",
			encode: func() []byte { return AppendCoverDecision(nil, &covDec) },
			check: func(t *testing.T, frame []byte) {
				var got CoverDecision
				if err := DecodeCoverDecision(payloadOf(t, frame), &got); err != nil {
					t.Fatal(err)
				}
				if got.Seq != covDec.Seq || got.Element != covDec.Element ||
					got.Arrival != covDec.Arrival || got.AddedCost != covDec.AddedCost || len(got.NewSets) != 2 {
					t.Fatalf("decoded %+v, want %+v", got, covDec)
				}
			},
		},
		{
			name:   "stream_error",
			encode: func() []byte { return AppendStreamError(nil, streamMsg) },
			check: func(t *testing.T, frame []byte) {
				got, err := DecodeStreamError(payloadOf(t, frame))
				if err != nil {
					t.Fatal(err)
				}
				if got != streamMsg {
					t.Fatalf("decoded %q, want %q", got, streamMsg)
				}
			},
		},
		{
			name:   "query_request",
			encode: func() []byte { return AppendQueryRequest(nil, &qryReq) },
			check: func(t *testing.T, frame []byte) {
				var got QueryRequest
				if err := DecodeQueryRequest(payloadOf(t, frame), &got); err != nil {
					t.Fatal(err)
				}
				if got != qryReq {
					t.Fatalf("decoded %+v, want %+v", got, qryReq)
				}
			},
		},
		{
			name:   "query_decision",
			encode: func() []byte { return AppendQueryDecision(nil, &qryDec) },
			check: func(t *testing.T, frame []byte) {
				var got QueryDecision
				if err := DecodeQueryDecision(payloadOf(t, frame), &got); err != nil {
					t.Fatal(err)
				}
				if got.Pos != qryDec.Pos || !got.Accepted ||
					len(got.Preempted) != 2 || got.Replayed != qryDec.Replayed {
					t.Fatalf("decoded %+v, want %+v", got, qryDec)
				}
			},
		},
		{
			name:   "query_decision_error",
			encode: func() []byte { return AppendQueryDecision(nil, &qryErr) },
			check: func(t *testing.T, frame []byte) {
				var got QueryDecision
				if err := DecodeQueryDecision(payloadOf(t, frame), &got); err != nil {
					t.Fatal(err)
				}
				if got.Pos != qryErr.Pos || got.Accepted || got.Error != qryErr.Error {
					t.Fatalf("decoded %+v, want %+v", got, qryErr)
				}
			},
		},
		{
			name:   "cluster_reserve",
			encode: func() []byte { return AppendClusterReserve(nil, clReserve.Tx, clReserve.Edges) },
			check: func(t *testing.T, frame []byte) {
				var got ClusterReserve
				if err := DecodeClusterReserve(payloadOf(t, frame), &got); err != nil {
					t.Fatal(err)
				}
				if got.Tx != clReserve.Tx || len(got.Edges) != len(clReserve.Edges) {
					t.Fatalf("decoded %+v, want %+v", got, clReserve)
				}
			},
		},
		{
			name:   "cluster_commit",
			encode: func() []byte { return AppendClusterCommit(nil, clTx) },
			check: func(t *testing.T, frame []byte) {
				got, err := DecodeClusterTx(payloadOf(t, frame), TagClusterCommit)
				if err != nil {
					t.Fatal(err)
				}
				if got != clTx {
					t.Fatalf("decoded tx %d, want %d", got, clTx)
				}
			},
		},
		{
			name:   "cluster_abort",
			encode: func() []byte { return AppendClusterAbort(nil, clTx) },
			check: func(t *testing.T, frame []byte) {
				got, err := DecodeClusterTx(payloadOf(t, frame), TagClusterAbort)
				if err != nil {
					t.Fatal(err)
				}
				if got != clTx {
					t.Fatalf("decoded tx %d, want %d", got, clTx)
				}
			},
		},
		{
			name: "submit_body",
			encode: func() []byte {
				body := AppendSubmitHeader(nil, 2)
				body = AppendAdmissionRequest(body, []int{0, 1}, 1)
				return AppendAdmissionRequest(body, []int{2}, 4.5)
			},
			check: func(t *testing.T, body []byte) {
				count, rest, err := ReadSubmitHeader(body)
				if err != nil {
					t.Fatal(err)
				}
				if count != 2 {
					t.Fatalf("count %d, want 2", count)
				}
				for i := 0; i < count; i++ {
					var payload []byte
					if payload, rest, err = NextFrame(rest); err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					var req AdmissionRequest
					if err := DecodeAdmissionRequest(payload, &req); err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
				}
				if len(rest) != 0 {
					t.Fatalf("%d trailing bytes", len(rest))
				}
			},
		},
	}
}

// TestGoldenWireFixtures byte-compares every message type's encoding with
// its committed hex dump and decodes the committed bytes back, so any
// format drift fails loudly.
func TestGoldenWireFixtures(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, fx := range goldenFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			path := filepath.Join(dir, fx.name+".hex")
			encoded := fx.encode()
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hex.EncodeToString(encoded)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
			}
			want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
			if err != nil {
				t.Fatalf("corrupt golden fixture %s: %v", path, err)
			}
			if !bytes.Equal(encoded, want) {
				t.Fatalf("wire format drift in %s:\n  encoded %x\n  golden  %x\nIf the change is intentional, regenerate with -update-golden and treat it as a breaking protocol change.",
					fx.name, encoded, want)
			}
			// The committed bytes must also decode back to the canonical
			// message — pinning the decoder, not just the encoder.
			fx.check(t, want)
		})
	}
}
