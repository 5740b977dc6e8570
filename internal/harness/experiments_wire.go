package harness

// --- E16: wire loopback — binary protocol fidelity and throughput --------
//
// E16 validates the binary wire protocol (DESIGN.md §11): the same
// overloaded workload as E14 is decided four ways — directly against the
// sharded engine, through the JSON serving path with one connection,
// through the binary path with one connection, and through the binary path
// with eight connections. With one connection the pipeline is FIFO end to
// end, so the JSON and binary decision streams must both match the direct
// engine line for line (ID, accepted, cross-shard, preempted) — the codec
// must not be able to change a decision; the experiment errors out on the
// first divergence. The eight-connection binary run measures the hot
// path's concurrent throughput and must reconcile exactly with the
// engine's accounting. Acceptance (see EXPERIMENTS.md §E16): both conns=1
// streams identical to direct, and every loopback competitive ratio
// within 2x of direct.

func init() {
	registry = append(registry,
		Experiment{"E16", "Wire loopback: binary protocol fidelity and throughput (§3 over the §11 codec)", runE16},
	)
}

func runE16(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Wire loopback: binary protocol fidelity and throughput (acserve §11 codec)",
		Columns: []string{"path", "throughput (dec/s)", "ratio (mean ± ci95)", "vs direct"},
	}
	worst, err := runAdmissionLegs(cfg, t, []admissionLeg{
		{name: "direct"},
		{name: "json conns=1", conns: 1},
		{name: "wire conns=1", conns: 1, wire: true},
		{name: "wire conns=8", conns: 8, wire: true},
	}, 0xE16E16, 2750159, false)
	if err != nil {
		return nil, err
	}
	verdict := "PASS"
	if worst > 2 {
		verdict = "FAIL"
	}
	t.AddNote("direct = sequential Submit against the same 4-shard engine; json/wire = acserve on 127.0.0.1 over the named codec")
	t.AddNote("both conns=1 streams were compared line by line (id, accepted, cross-shard, preempted) and are identical to direct")
	t.AddNote("acceptance: loopback ratio within 2x of direct — worst observed %.2fx: %s; wire conns=8 accounting reconciled exactly", worst, verdict)
	t.AddNote(legsThroughputNote + "; the codec's throughput gain is DESIGN.md §11's ten-seed wire/json ratio (median 1.97x, quartiles 1.81–2.21x)")
	return []*Table{t}, nil
}
