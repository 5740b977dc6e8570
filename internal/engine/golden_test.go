package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"admission/internal/core"
	"admission/internal/graph"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/workload"
)

// updateGolden regenerates testdata/golden/engine_trace.ndjson from the
// current implementation:
// go test ./internal/engine -run TestGoldenEngineTrace -update
var updateGolden = flag.Bool("update", false, "rewrite the engine golden trace")

const (
	goldenChunk = 256 // SubmitBatch size of the golden run
	goldenSeed  = 7   // the algorithm seed
)

// goldenReserveA and goldenReserveB span shards at every K the golden run
// uses (contiguous partitions of 64 edges).
var (
	goldenReserveA = []int{3, 40, 61}
	goldenReserveB = []int{10, 33}
)

// goldenLine is one line of the golden trace: a decision (Op empty), a
// resize (Op "grow" or "shrink"), or the end-of-run state (Op "end").
type goldenLine struct {
	K          int         `json:"k"`
	Op         string      `json:"op,omitempty"`
	ID         int         `json:"id"`
	Accepted   bool        `json:"accepted"`
	CrossShard bool        `json:"cross_shard"`
	Preempted  []int       `json:"preempted,omitempty"`
	Applied    int         `json:"applied,omitempty"`
	CostBits   string      `json:"rejected_cost_bits,omitempty"`
	Digest     string      `json:"state_digest,omitempty"`
	Shards     []ShardStat `json:"shard_stats,omitempty"`
}

// goldenRun drives one K-shard engine through the golden stream: admit-paths
// traffic in 256-item batches, with one grow of every edge followed by a
// reserve→commit and a reserve→release pair, and later one shrink of
// every edge, at fixed chunk boundaries. It returns one encoded line per decision, resize and end
// state.
func goldenRun(t *testing.T, k int) [][]byte {
	t.Helper()
	ins := goldenInstance(t)
	eng := goldenEngine(t, ins.Capacities, k)
	defer eng.Close()
	ctx := context.Background()
	var lines [][]byte
	emit := func(l goldenLine) {
		l.K = k
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	decision := func(d Decision, err error) Decision {
		if err != nil {
			t.Fatal(err)
		}
		if d.Err != nil {
			t.Fatalf("K=%d decision %d: %v", k, d.ID, d.Err)
		}
		emit(goldenLine{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted})
		return d
	}
	resize := func(op string, r Resize, err error) {
		if err != nil {
			t.Fatal(err)
		}
		emit(goldenLine{Op: op, Applied: r.Applied, Preempted: r.Preempted})
	}
	pair := func(edges []int, keep bool) {
		if !decision(eng.SubmitReserve(ctx, edges)).Accepted {
			return
		}
		if keep {
			decision(eng.SubmitCommit(ctx, edges))
		} else {
			decision(eng.SubmitRelease(ctx, edges))
		}
	}
	for c, lo := 0, 0; lo < len(ins.Requests); c, lo = c+1, lo+goldenChunk {
		ds, err := eng.SubmitBatch(ctx, ins.Requests[lo:min(lo+goldenChunk, len(ins.Requests))])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			decision(d, nil)
		}
		switch c {
		case 1:
			// The grow frees a unit on every edge, so both reservations
			// can be granted.
			r, err := eng.GrowCapacity(ctx, AllEdges, 1)
			resize("grow", r, err)
			pair(goldenReserveA, true)
			pair(goldenReserveB, false)
		case 5:
			r, err := eng.ShrinkCapacity(ctx, AllEdges, 1)
			resize("shrink", r, err)
		}
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	emit(goldenLine{
		Op:       "end",
		ID:       -1,
		CostBits: fmt.Sprintf("%#016x", math.Float64bits(eng.RejectedCost())),
		Digest:   fmt.Sprintf("%#016x", eng.StateDigest()),
		Shards:   eng.ShardStats(),
	})
	return lines
}

// goldenInstance is admit-paths' instance: 64 edges of capacity 8 on a
// 16-vertex random graph, with 2,048 weighted uniform-cost paths.
func goldenInstance(t *testing.T) *problem.Instance {
	t.Helper()
	r := rng.New(2025)
	g, err := graph.Random(16, 64, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := workload.RandomTraffic(g, 2048, workload.CostUniform, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func goldenEngine(t *testing.T, caps []int, k int) *Engine {
	t.Helper()
	acfg := core.DefaultConfig()
	acfg.Seed = goldenSeed
	eng, err := New(caps, Config{Shards: k, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestGoldenEngineTrace pins the multi-shard engine's decisions, cross-shard
// reservations, cluster settles and resizes included, to a trace recorded
// from the engine before its shards decided on the submitter. At each K a
// twin engine fed the first batch's requests one Submit at a time must
// print the same lines as the batch.
func TestGoldenEngineTrace(t *testing.T) {
	var got bytes.Buffer
	for _, k := range []int{2, 4, 8} {
		lines := goldenRun(t, k)
		ins := goldenInstance(t)
		twin := goldenEngine(t, ins.Capacities, k)
		cross := 0
		for i, r := range ins.Requests[:goldenChunk] {
			d, err := twin.Submit(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(goldenLine{K: k, ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, lines[i]) {
				t.Fatalf("K=%d request %d: Submit line %s, SubmitBatch line %s", k, i, b, lines[i])
			}
			if d.CrossShard {
				cross++
			}
		}
		twin.Close()
		if 3*cross < goldenChunk {
			t.Fatalf("K=%d: only %d of the first %d requests cross shards", k, cross, goldenChunk)
		}
		for _, l := range lines {
			got.Write(l)
			got.WriteByte('\n')
		}
	}

	path := filepath.Join("testdata", "golden", "engine_trace.ndjson")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden trace (regenerate with -update): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, golden has %d", len(gl), len(wl))
}
