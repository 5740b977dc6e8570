package harness

import (
	"fmt"
	"os"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/server"
)

// --- E17: crash recovery — the WAL restart is decision-identical ----------
//
// E17 validates the durability layer (internal/wal, DESIGN.md §12) at the
// only level that counts: a real process killed with SIGKILL. The
// experiment re-executes its own binary as a durable acserve-equivalent
// child (the RunChild hook, installed in acbench's main and the harness
// test binary's TestMain), drives it over a one-connection loopback, and
// SIGKILLs it mid-load with an unsnapshotted segment tail on disk. The
// restarted child must recover exactly the acknowledged prefix — group
// commit acknowledges a decision only after fsync, and the parent stops
// submitting before it kills, so recovered == acknowledged with no slack —
// and the decisions it serves from there must be byte-identical, line for
// line, to an uninterrupted golden run of the same seeded engine (the
// E14/E15/E16 identity standard). A final SIGTERM exercises the shutdown
// snapshot, and an in-process read-only fsck replays the whole log into a
// fresh engine whose state digest must equal the golden run's. Acceptance
// (see EXPERIMENTS.md §E17): recovered == acknowledged, both served
// segments identical to golden, and the fsck digest equal to the golden
// digest.

func init() {
	registry = append(registry,
		Experiment{"E17", "Crash recovery: WAL restart decision-identical to an uninterrupted run (DESIGN.md §12)", runE17},
	)
}

// e17Engine builds the deterministic engine the golden run, the child and
// the fsck share.
func e17Engine(caps []int, seed uint64) (*engine.Engine, error) {
	acfg := core.UnweightedConfig()
	acfg.Seed = seed
	return engine.New(caps, engine.Config{Shards: 4, Algorithm: acfg})
}

func runE17(cfg Config) ([]*Table, error) {
	seed := cfg.Seed ^ 0xE17E17
	m := cfg.scaledInt(64, 16)
	ins, err := childInstance(seed, m)
	if err != nil {
		return nil, err
	}
	n := len(ins.Requests)
	if n < 8 {
		return nil, fmt.Errorf("E17: workload produced only %d requests", n)
	}
	// Batch small enough that the kill point lands strictly inside the
	// stream, snapshot interval small enough that the crash leaves both a
	// snapshot and an unsnapshotted segment tail behind.
	batch := min(64, n/4)
	snapEvery := max(int64(n/8), 16)

	// Golden run: the uninterrupted sequential decision stream and final
	// state digest every served segment is held to.
	eng, err := e17Engine(ins.Capacities, seed)
	if err != nil {
		return nil, err
	}
	golden, err := directLines(eng, ins.Requests)
	goldenDigest := eng.StateDigest()
	eng.Close()
	if err != nil {
		return nil, fmt.Errorf("E17: golden run: %w", err)
	}

	dir, err := os.MkdirTemp("", "e17-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec := childSpec{Role: roleAdmission, Dir: dir, Seed: seed, Edges: m, SnapEvery: snapEvery}

	// served streams requests [lo, hi) to a child over one connection and
	// diffs the decisions against the golden stream.
	served := func(c *child, lo, hi int) error {
		got, _, _, err := stream(server.NewAdmissionClient("http://"+c.addr, 1), ins.Requests[lo:hi], batch)
		if err != nil {
			return err
		}
		return sameLines(got, golden[lo:hi], lo, sameAdmission)
	}

	// Phase 1: durable child from an empty directory, SIGKILLed once the
	// first whole batches covering half the stream are acknowledged.
	c1, err := spawnChild(spec)
	if err != nil {
		return nil, err
	}
	acked := min(n, (n/2+batch-1)/batch*batch)
	if c1.recovered != 0 {
		err = fmt.Errorf("fresh child recovered %d decisions from an empty directory", c1.recovered)
	} else {
		err = served(c1, 0, acked)
	}
	c1.kill()
	if err != nil {
		return nil, fmt.Errorf("E17: pre-crash %w", err)
	}

	// Phase 2: restart from the same directory. Group commit acknowledges
	// only fsynced decisions and nothing was in flight at the kill, so the
	// recovered count must equal the acknowledged count exactly.
	c2, err := spawnChild(spec)
	if err != nil {
		return nil, err
	}
	if c2.recovered != int64(acked) {
		err = fmt.Errorf("recovered %d decisions, %d were acknowledged before SIGKILL", c2.recovered, acked)
	} else {
		err = served(c2, acked, n)
	}
	if err != nil {
		c2.kill()
		return nil, fmt.Errorf("E17: post-crash %w", err)
	}
	if err := c2.stop(); err != nil {
		return nil, fmt.Errorf("E17: child shutdown after SIGTERM: %w", err)
	}

	// Offline fsck: replay the whole log read-only into a fresh engine;
	// its digest must land exactly on the golden run's.
	fsckDigest, info, err := spec.fsck()
	if err != nil {
		return nil, fmt.Errorf("E17: fsck: %w", err)
	}
	if total := info.SnapshotSeq + info.TailRecords; total != int64(n) {
		return nil, fmt.Errorf("E17: fsck replayed %d decisions, served %d", total, n)
	}
	if fsckDigest != goldenDigest {
		return nil, fmt.Errorf("E17: fsck digest %016x, golden %016x", fsckDigest, goldenDigest)
	}

	t := &Table{
		ID:      "E17",
		Title:   "Crash recovery: WAL restart decision-identical to an uninterrupted run (DESIGN.md §12)",
		Columns: []string{"phase", "decisions", "vs golden"},
	}
	t.AddRow("golden direct run", fmt.Sprint(n), "—")
	t.AddRow("served, then SIGKILL", fmt.Sprint(acked), "identical prefix")
	t.AddRow("recovered on restart", fmt.Sprint(c2.recovered), "== acknowledged")
	t.AddRow("served after restart", fmt.Sprint(n-acked), "identical continuation")
	t.AddRow("fsck replay (read-only)", fmt.Sprint(info.SnapshotSeq+info.TailRecords),
		fmt.Sprintf("digest %016x == golden", fsckDigest))
	t.AddNote("child = this binary re-executed as a durable loopback server (%d edges, 4 shards, snapshot every %d decisions)", m, snapEvery)
	t.AddNote("every served decision was compared line by line (id, accepted, cross-shard, preempted) against the golden stream")
	t.AddNote("acceptance: recovered == acknowledged, both served segments identical to golden, fsck digest equal — PASS")
	return []*Table{t}, nil
}
