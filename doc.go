// Package admission is a Go implementation of the online algorithms from
//
//	Noga Alon, Yossi Azar, Shai Gutner.
//	"Admission Control to Minimize Rejections and Online Set Cover with
//	Repetitions." SPAA 2005.
//
// The admission control to minimize rejections problem: communication
// requests arrive online, each with the path it must be routed on and a
// rejection cost; the algorithm accepts, rejects, or preempts requests while
// keeping every edge within its capacity, and pays for everything it rejects.
// The package provides:
//
//   - the §2 fractional online algorithm (O(log(mc))-competitive, Theorem 2),
//   - the §3 randomized preemptive algorithms (O(log²(mc)) weighted,
//     O(log m·log c) unweighted — Theorems 3 and 4, settling the open
//     question of Blum, Kalai and Kleinberg),
//   - the §4 reduction solving online set cover with repetitions
//     (O(log m·log n) unweighted, matching the Feige–Korman lower bound),
//   - the §5 deterministic bicriteria online set cover algorithm (Theorem 7),
//   - the baselines the paper improves on (greedy accept-if-feasible and
//     preemptive heuristics), offline optima (exact branch-and-bound, LP
//     relaxation via a built-in simplex, greedy multicover), workload
//     generators and adaptive adversaries, and the experiment harness that
//     reproduces every theorem's scaling law (see EXPERIMENTS.md),
//   - a sharded concurrent serving engine (NewEngine, configured with
//     functional options like WithShards) that partitions the edge set and
//     runs per-shard §2/§3 instances behind per-shard locks, for
//     concurrent traffic (see DESIGN.md §5),
//   - a sharded concurrent set cover engine (NewCoverEngine) that
//     partitions the ground set of elements and runs the §4 reduction (or
//     the §5 bicriteria algorithm) inside each shard, with a global
//     chosen-set ledger — see DESIGN.md §9,
//   - one generic serving contract (Service[Req, Dec], DESIGN.md §10) both
//     engines implement: context-aware Submit and SubmitBatch, uniform
//     ServiceStats, Drain and Close — the shape the whole serving stack is
//     written against,
//   - a network-facing HTTP workload registry (cmd/acserve) serving both
//     engines through one generic handler under /v1/{workload}, with
//     batched submission, streaming decisions, Prometheus metrics and
//     graceful drain, plus a load generator (cmd/acload) — see DESIGN.md
//     §7, §9 and §10.
//
// # Quick start
//
//	caps := []int{4, 4, 4}                      // three edges, capacity 4
//	alg, _ := admission.NewRandomized(caps, admission.DefaultConfig())
//	out, _ := alg.Offer(0, admission.Request{Edges: []int{0, 1}, Cost: 2.5})
//	fmt.Println(out.Accepted, alg.RejectedCost())
//
// Use Run to execute an algorithm over a whole Instance under the
// independent feasibility verifier, and the Opt* helpers to compare against
// offline optima. Everything is deterministic given the seeds in the
// configs.
package admission
