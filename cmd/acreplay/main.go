// Command acreplay audits serving artifacts offline. It has two modes.
//
// Artifact mode (the default) audits a RecordedRun produced by acsim
// -record: it replays the decision log against the embedded instance with
// an independent state machine and verifies capacity feasibility at every
// event, the legality of each state transition, and the claimed objective.
//
//	acsim -workload grid -n 60 -alg randomized -record run.json
//	acreplay run.json
//
// WAL mode (-wal) is the offline fsck for a decision log written by
// acserve -wal-dir (DESIGN.md §12): it opens the directory read-only,
// rebuilds the engine from the same configuration flags acserve was
// started with, and replays the whole log — the compacted snapshot prefix
// is checked against the stamped state digest, and every tail record's
// regenerated decision is verified field for field against the logged one.
// Nothing on disk is modified; a torn final record is reported, not
// truncated. The engine flags must match the recorded run (wal.Open
// rejects a mismatched configuration fingerprint); the summary prints the
// fingerprint, as acserve's startup lines do.
//
//	acreplay -wal -edges 64 -cap 16 -shards 8 /var/lib/acserve/admission
//	acreplay -wal -cover -cover-workload cover-random /var/lib/acserve/cover
//
// Exit code 0 means the artifact or log is internally consistent; any
// tampering, corruption, or divergence is reported and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/opt"
	"admission/internal/server"
	"admission/internal/trace"
	"admission/internal/workload"
)

func main() {
	var (
		quiet   = flag.Bool("q", false, "suppress the summary; exit code only")
		walMode = flag.Bool("wal", false, "fsck a decision WAL directory instead of a RecordedRun artifact")

		wl         = flag.String("workload", "", "built-in workload supplying the capacity vector (overrides -edges)")
		edges      = flag.Int("edges", 32, "number of edges for a flat network")
		capacity   = flag.Int("cap", 8, "per-edge capacity")
		shards     = flag.Int("shards", 1, "engine shard count")
		seed       = flag.Uint64("seed", 1, "algorithm seed")
		unweighted = flag.Bool("unweighted", false, "use the paper's unweighted constants")

		cover     = flag.Bool("cover", false, "the WAL is a set cover decision log")
		coverWl   = flag.String("cover-workload", "cover-random", "named set-cover workload supplying the set system")
		coverSeed = flag.Uint64("cover-seed", 1, "set-cover workload + algorithm seed")
		coverSh   = flag.Int("cover-shards", 1, "cover engine element-partition shard count")
		coverMode = flag.String("cover-mode", "reduction", "cover algorithm: reduction | bicriteria")
		coverEps  = flag.Float64("cover-eps", 0.25, "bicriteria slack ε in (0,1)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: acreplay [-q] <run.json>")
		fmt.Fprintln(os.Stderr, "       acreplay [-q] -wal [engine flags] <wal-dir>")
		os.Exit(2)
	}
	if !*walMode {
		verifyArtifact(flag.Arg(0), *quiet)
		return
	}
	var node *server.Node
	if *cover {
		mode, err := coverengine.ParseMode(*coverMode)
		if err != nil {
			fail(err)
		}
		w, err := workload.BuildNamedCover(*coverWl, 0, *coverSeed)
		if err != nil {
			fail(err)
		}
		cov, err := coverengine.New(w.Instance, coverengine.Config{Shards: *coverSh, Seed: *coverSeed, Mode: mode, Eps: *coverEps})
		if err != nil {
			fail(err)
		}
		node = server.CoverNode(cov)
	} else {
		caps, err := workload.Capacities(*wl, *edges, *capacity, *seed)
		if err != nil {
			fail(err)
		}
		eng, err := engine.New(caps, engine.Config{Shards: *shards, Algorithm: core.SeededConfig(*unweighted, *seed)})
		if err != nil {
			fail(err)
		}
		node = server.AdmissionNode(eng)
	}
	fsckWAL(flag.Arg(0), node, *quiet)
}

// verifyArtifact is the original RecordedRun audit.
func verifyArtifact(path string, quiet bool) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()

	rr, err := trace.LoadRecordedRun(f)
	if err != nil {
		fail(err)
	}
	if err := rr.Verify(); err != nil {
		fmt.Fprintf(os.Stderr, "acreplay: VERIFICATION FAILED: %v\n", err)
		os.Exit(1)
	}
	if quiet {
		return
	}
	fmt.Printf("artifact:       %s\n", path)
	fmt.Printf("algorithm:      %s\n", rr.Algorithm)
	fmt.Printf("instance:       %d edges, %d requests\n", rr.Instance.M(), rr.Instance.N())
	fmt.Printf("events:         %d\n", len(rr.Events))
	fmt.Printf("rejected cost:  %g (verified by independent replay)\n", rr.RejectedCost)
	if lb, err := opt.BestLowerBound(rr.Instance); err == nil {
		fmt.Printf("OPT lower bnd:  %g\n", lb)
		if lb > 0 {
			fmt.Printf("ratio (vs LB):  %.3f\n", rr.RejectedCost/lb)
		}
	}
	fmt.Println("OK: the recorded run is internally consistent")
}

// fsckWAL replays a decision log read-only into node's fresh engine: the
// open fails on corruption anywhere but a torn final record, the snapshot
// prefix is checked against its stamped state digest, and every tail
// record's regenerated decision is verified against the logged one.
func fsckWAL(dir string, node *server.Node, quiet bool) {
	defer node.Close()
	log, info, err := node.Open(dir, true)
	if err != nil {
		failedFsck(err)
	}
	defer log.Close()
	if quiet {
		return
	}
	fmt.Printf("wal:            %s (%s)\n", dir, log.Kind())
	fmt.Printf("fingerprint:    %s\n", node.Fingerprint)
	fmt.Printf("decisions:      %d (%d snapshot + %d verified tail)\n",
		info.SnapshotSeq+info.TailRecords, info.SnapshotSeq, info.TailRecords)
	fmt.Printf("next seq:       %d\n", log.NextSeq())
	fmt.Printf("state digest:   %016x\n", node.StateDigest())
	fmt.Printf("replay time:    %v\n", info.Duration.Round(time.Millisecond))
	if info.TornBytes > 0 {
		fmt.Printf("torn tail:      %d bytes (never acknowledged; a writable open truncates it)\n", info.TornBytes)
	}
	fmt.Println("OK: the decision log is internally consistent")
}

func failedFsck(err error) {
	fmt.Fprintf(os.Stderr, "acreplay: VERIFICATION FAILED: %v\n", err)
	os.Exit(1)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acreplay:", err)
	os.Exit(1)
}
