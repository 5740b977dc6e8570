package lca

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"admission/internal/core"
	"admission/internal/workload"
)

// The golden query trace pins the tier's observable behaviour end to end:
// a fixed engine configuration, queried at every position, must keep
// producing byte-identical NDJSON answer lines. Any drift in the workload generators, the §3 algorithm, or the
// replay path fails here loudly. Regenerate deliberately with
//
//	go test ./internal/lca -run TestGoldenQueryTrace -update-golden
//
// and review the diff like an algorithm change.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden query trace")

// goldenLine is the trace spelling of one answer (a stable subset of the
// serving layer's QueryDecisionJSON).
type goldenLine struct {
	Pos       int   `json:"pos"`
	Accepted  bool  `json:"accepted"`
	Preempted []int `json:"preempted,omitempty"`
	Replayed  int   `json:"replayed"`
}

func TestGoldenQueryTrace(t *testing.T) {
	alg := core.DefaultConfig()
	alg.Seed = 1
	eng, err := New(Config{
		Source:    Source{Workload: "random", Model: workload.CostUniform, Capacity: 4, N: 48, Seed: 7},
		Algorithm: alg,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var qs []Query
	for pos := 0; pos < eng.Positions(); pos++ {
		qs = append(qs, Query{Pos: pos})
	}
	answers, err := eng.SubmitBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	for _, a := range answers {
		if a.Err != nil {
			t.Fatalf("pos %d: %v", a.Pos, a.Err)
		}
		line, err := json.Marshal(goldenLine{
			Pos:       a.Pos,
			Accepted:  a.Accepted,
			Preempted: a.Preempted,
			Replayed:  a.Replayed,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}

	path := filepath.Join("testdata", "golden", "query_trace.ndjson")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("query trace drifted from the golden fixture.\nIf the change is intentional, regenerate with -update-golden and treat it as a behavioural change.\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}
