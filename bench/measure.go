package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"admission/internal/stats"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order. rss_mb is the peak resident set of the process that ran the
// workload, which serves only that workload. p99_ms is reported too, but
// unbounded: on the 2-CPU reference host its run-to-run spread (12–62%)
// exceeded every bound the benchmark may set.
var endToEnd = []struct{ name, unit string }{
	{"throughput", "items/s"},
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"rss_mb", "MiB"},
	{"objective", "cost"},
}

// outcome is what one run of one workload produced.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds what the run reports beyond BENCHMARK.json's metrics,
	// unbounded: an untraced run's p99 and generator lag, a traced run's
	// rungs under their module names.
	Extra map[string]metric `json:"extra"`
	// Path names the rungs server.self_ns_per_item is net of.
	Path []string `json:"path,omitempty"`
	// Samples counts what each statistic was computed from.
	Samples map[string]int `json:"samples"`
	// Problem explains why Correct is false.
	Problem string `json:"problem,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{Correct: true, Metrics: map[string]metric{}, Extra: map[string]metric{}, Samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.Metrics[name] = metric{v, unit} }

// fail marks the run incorrect, keeping the first reason.
func (o *outcome) fail(format string, args ...any) {
	if o.Correct {
		o.Problem = fmt.Sprintf(format, args...)
	}
	o.Correct = false
}

// count folds one phase's item counts into the run's totals. A submission
// either fails as a whole or returns one line per item, so l.failed
// already covers transport failures, missing decisions and error lines.
func (o *outcome) count(l load) {
	o.Attempted += l.items
	o.Failed += l.failed
}

// runCheck runs the check phase into o; a divergence from the reference
// makes the run incorrect.
func runCheck(k kit, o *outcome) (float64, error) {
	c, err := k.check()
	if err != nil {
		return 0, fmt.Errorf("check: %w", err)
	}
	o.Attempted += c.items
	o.Failed += c.failed
	if c.divergence != "" {
		o.fail("check: served decisions diverge from the sequential reference: %s", c.divergence)
	}
	return c.objective, nil
}

// sessionRunner starts and stops measured sessions, numbering them so they
// cycle through the run's streams, and keeps every setup time.
type sessionRunner struct {
	k      kit
	next   int
	setups []float64
}

// run starts one session, runs fn on it and stops it.
func (r *sessionRunner) run(conns int, fn func(s live)) error {
	r.next++
	s, err := r.k.session(r.next, conns)
	if err != nil {
		return err
	}
	r.setups = append(r.setups, s.setupTime().Seconds())
	fn(s)
	return s.stop()
}

// openShare is the part of the measured time the open loop gets, at least;
// the rest goes to the closed loop.
const openShare = 0.6

// minLatencySamples is how many latency samples the open loop collects at
// least, lengthening itself beyond its share when the workload's rate is
// too low to collect them in time: p99 then has ten samples beyond it.
const minLatencySamples = 1000

// e2e runs the phases of one untraced run: check, one warm-up session,
// the open loop at the workload's fixed rate for openShare of the measured
// time and at least minSamples submissions, then closed-loop sessions for
// the rest of the time.
func e2e(k kit, w spec, seconds float64, minSamples int) (*outcome, error) {
	o := newOutcome()
	objective, err := runCheck(k, o)
	if err != nil || !o.Correct {
		return o, err
	}
	r := &sessionRunner{k: k}
	if err := r.run(conns, func(s live) { o.count(s.closed(conns)) }); err != nil {
		return o, fmt.Errorf("warm-up: %w", err)
	}

	steal0, err := stealTicks()
	if err != nil {
		return o, err
	}
	measured := time.Now()
	var latency, lag []time.Duration
	openEnd := time.Now().Add(time.Duration(seconds * openShare * float64(time.Second)))
	for len(latency) < minSamples || time.Now().Before(openEnd) {
		err := r.run(conns, func(s live) {
			l := s.open(conns, w.rate, nil)
			o.count(l)
			latency = append(latency, l.latency...)
			lag = append(lag, l.lag...)
		})
		if err != nil {
			return o, fmt.Errorf("open loop: %w", err)
		}
	}

	var decided int64
	var wall time.Duration
	closedSessions := 0
	err = forAbout(seconds*(1-openShare), func() error {
		return r.run(conns, func(s live) {
			l := s.closed(conns)
			o.count(l)
			decided += l.decided
			wall += l.wall
			closedSessions++
		})
	})
	if err != nil {
		return o, fmt.Errorf("closed loop: %w", err)
	}
	steal1, err := stealTicks()
	if err != nil {
		return o, err
	}
	cpuSeconds := time.Since(measured).Seconds() * float64(runtime.NumCPU())

	o.set("throughput", float64(decided)/wall.Seconds(), "items/s")
	o.set("p50_ms", quantileMs(latency, 0.5), "ms")
	o.set("setup_s", median(r.setups), "s")
	o.set("objective", objective, "cost")
	rss, err := peakRSSMiB()
	if err != nil {
		return o, err
	}
	o.set("rss_mb", rss, "MiB")
	o.Extra["p99_ms"] = metric{quantileMs(latency, 0.99), "ms"}
	o.Extra["loadgen.lag_p99_ms"] = metric{quantileMs(lag, 0.99), "ms"}
	// The share of the CPUs' time in the measured phases that the
	// hypervisor gave to other guests: contention on a shared host that no
	// change to this repository causes.
	o.Extra["host.steal_frac"] = metric{(steal1 - steal0) / 100 / cpuSeconds, "frac"}
	o.Samples["open_latency"] = len(latency)
	o.Samples["closed_sessions"] = closedSessions
	o.Samples["setup_sessions"] = len(r.setups)
	if o.Failed > 0 {
		o.fail("%d of %d items failed", o.Failed, o.Attempted)
	}
	return o, nil
}

// forAbout calls fn at least once and then again while less than seconds
// have passed since the first call.
func forAbout(seconds float64, fn func() error) error {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		if err := fn(); err != nil {
			return err
		}
		if time.Now().After(end) {
			return nil
		}
	}
}

// quantileMs returns the q-quantile of ds in milliseconds (0 when empty).
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	v, err := stats.Quantile(xs, q)
	if err != nil {
		panic(err) // unreachable: xs is non-empty and q is a constant in [0,1]
	}
	return v
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, err := stats.Median(xs)
	if err != nil {
		panic(err) // unreachable: xs is non-empty
	}
	return v
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
