package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"text/tabwriter"

	"admission/internal/stats"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

// compareMain implements `bench compare [-spec FILE] A... -- B...`: for
// every (workload, metric) it prints both sides' median and quartiles, the
// share of paired runs B wins, and a verdict. It exits 1 when B regresses
// an end-to-end metric beyond its bound or any B run failed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	cut := slices.Index(rest, "--")
	if cut <= 0 || cut == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := readRecords(rest[:cut])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	b, err := readRecords(rest[cut+1:])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	rows, failed := compare(spec, a, b)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tB wins\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.1f%%\t%d/%d\t%s\n",
			r.workload, r.metric, r.a[1], r.a[0], r.a[2], r.b[1], r.b[0], r.b[2], r.change*100, r.wins, r.pairs, r.verdict)
		if r.verdict == "regressed" && r.bound > 0 {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	for _, f := range failed {
		fmt.Fprintln(stdout, f)
		code = 1
	}
	return code
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func readRecords(paths []string) ([]record, error) {
	out := make([]record, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// row is one (workload, metric) comparison.
type row struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	change           float64    // (B−A)/A of the medians
	wins, pairs      int
	bound            float64
	verdict          string
}

// compare judges every metric both sides report, following the
// choosing-metrics rule: a side whose quartile spread exceeds the bound is
// unresolved unless every B run beats every A run; otherwise B regressed
// when its median is worse than A's by more than the bound, and improved
// when it wins at least nine tenths of the paired runs and its median moved
// by more than A's interquartile range. Metrics without a bound (per-layer
// ones and ladder rungs) follow the win rule in both directions. It also
// lists every B run that failed.
func compare(spec benchSpec, a, b []record) ([]row, []string) {
	defs := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		defs[m.Name] = m
	}
	var failed []string
	for _, r := range b {
		if !r.Correct || r.Failed > 0 {
			failed = append(failed, fmt.Sprintf("B run %s seed %d failed %d of %d items: %s", r.Workload, r.Host.Seed, r.Failed, r.Attempted, r.Problem))
		}
	}
	var rows []row
	for _, wl := range workloadsOf(a, b) {
		as, bs := runsOf(a, wl), runsOf(b, wl)
		names := map[string]bool{}
		for _, r := range as {
			for n := range r.Metrics {
				names[n] = true
			}
			for n := range r.Extra {
				names[n] = true
			}
		}
		for _, name := range sortedNames(names) {
			av, bv := valuesOf(as, name), valuesOf(bs, name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			def, ok := defs[name]
			if !ok {
				def = specMetric{Name: name, Better: "lower"} // a ladder rung: a cost
			}
			rows = append(rows, judge(wl, def, av, bv))
		}
	}
	return rows, failed
}

func judge(workload string, def specMetric, av, bv []float64) row {
	r := row{workload: workload, metric: def.Name, a: quartiles(av), b: quartiles(bv), bound: def.Bound}
	sign := 1.0 // +1: lower is better
	if def.Better == "higher" {
		sign = -1
	}
	r.change = (r.b[1] - r.a[1]) / math.Abs(r.a[1])
	worse := sign * r.change // > 0: B is worse
	r.pairs = min(len(av), len(bv))
	losses := 0
	for i := range r.pairs {
		switch d := sign * (bv[i] - av[i]); {
		case d < 0:
			r.wins++
		case d > 0:
			losses++
		}
	}
	gap := math.Abs(r.b[1]-r.a[1]) > r.a[2]-r.a[0]
	spread := math.Max((r.a[2]-r.a[0])/math.Abs(r.a[1]), (r.b[2]-r.b[0])/math.Abs(r.b[1]))
	switch {
	case def.Bound > 0 && spread > def.Bound:
		r.verdict = "unresolved"
		if allBetter(av, bv, sign) {
			r.verdict = "improved"
		}
	case def.Bound > 0 && worse > def.Bound:
		r.verdict = "regressed"
	case 10*r.wins >= 9*r.pairs && gap && worse < 0:
		r.verdict = "improved"
	case def.Bound == 0 && 10*losses >= 9*r.pairs && gap && worse > 0:
		r.verdict = "regressed"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// allBetter reports whether every B value beats every A value (sign +1:
// lower is better, −1: higher is).
func allBetter(av, bv []float64, sign float64) bool {
	for _, b := range bv {
		for _, a := range av {
			if sign*(b-a) >= 0 {
				return false
			}
		}
	}
	return true
}

func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		v, err := stats.Quantile(xs, p)
		if err != nil {
			panic(err) // unreachable: callers pass non-empty samples
		}
		q[i] = v
	}
	return q
}

func workloadsOf(a, b []record) []string {
	seen := map[string]bool{}
	for _, r := range a {
		seen[r.Workload] = true
	}
	var out []string
	for _, r := range b {
		if seen[r.Workload] && !slices.Contains(out, r.Workload) {
			out = append(out, r.Workload)
		}
	}
	sort.Strings(out)
	return out
}

// runsOf returns one workload's runs ordered by seed, so runs of the same
// seeds on both sides pair up.
func runsOf(rs []record, workload string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Host.Seed < out[j].Host.Seed })
	return out
}

func valuesOf(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Extra[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
