package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"admission/internal/problem"
	"admission/internal/workload"
)

// WireDecision is the constraint the load generator places on decision
// line types: a line reports a per-item failure as text and adds a clean
// decision into a LoadReport's workload aggregates. DecisionJSON,
// CoverDecisionJSON and QueryDecisionJSON satisfy it.
type WireDecision interface {
	// ErrorText returns the per-line failure, or "" for a clean decision.
	ErrorText() string
	// addTo folds a clean decision into r's workload aggregates.
	addTo(r *LoadReport)
}

// LoadConfig configures one RunLoad run (the engine behind cmd/acload and
// the load legs of E14, E15 and E19).
type LoadConfig[Req any] struct {
	// BaseURL is the target server.
	BaseURL string
	// Items is the sequence to send, in order (split round-robin by batch
	// across connections when Conns > 1).
	Items []Req
	// Conns is the number of concurrent submitting connections
	// (default 1).
	Conns int
	// Batch is the number of items per HTTP submission (default 64).
	Batch int
	// RPS is the target item rate summed over all connections;
	// 0 means unthrottled.
	RPS float64
	// Repeat cycles the item sequence this many times (default 1).
	Repeat int
}

func (c LoadConfig[Req]) conns() int {
	if c.Conns <= 0 {
		return 1
	}
	return c.Conns
}

func (c LoadConfig[Req]) batch() int {
	if c.Batch <= 0 {
		return 64
	}
	return c.Batch
}

func (c LoadConfig[Req]) repeat() int {
	if c.Repeat <= 0 {
		return 1
	}
	return c.Repeat
}

// LoadReport summarizes one load run, for any workload. Latencies are
// per-batch round trips (submit-to-last-decision as seen by the client),
// so they include the wait for the server's decision lock. Each clean decision line
// adds itself into the workload-specific aggregates (Accepted/Preempted
// for admission and query, SetsBought/CostAdded for cover); the rest is
// generic.
type LoadReport struct {
	// Sent counts items submitted; Decided counts decision lines received
	// (equal unless errors occurred).
	Sent, Decided int64
	// Errors counts per-item failures reported in the stream.
	Errors int64
	// Batches counts HTTP submissions.
	Batches int64
	// Accepted and Preempted aggregate an admission or query decision
	// stream.
	Accepted, Preempted int64
	// SetsBought and CostAdded aggregate a cover decision stream (each set
	// is reported bought exactly once across the whole run).
	SetsBought int64
	CostAdded  float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Throughput is Decided / Elapsed in decisions per second.
	Throughput float64
	// LatencyP50 .. LatencyMax are batch round-trip quantiles.
	LatencyP50, LatencyP90, LatencyP99, LatencyMax time.Duration
}

// String renders the generic part of the report as the acload summary
// block; the binary prints the workload-specific aggregate line itself.
func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"sent:        %d items in %d batches\n"+
			"decided:     %d (%d errors)\n"+
			"elapsed:     %v\n"+
			"throughput:  %.0f decisions/s\n"+
			"latency:     p50 %v  p90 %v  p99 %v  max %v (per batch)",
		r.Sent, r.Batches, r.Decided, r.Errors,
		r.Elapsed.Round(time.Millisecond), r.Throughput,
		r.LatencyP50, r.LatencyP90, r.LatencyP99, r.LatencyMax)
}

// RunLoad drives one served workload with cfg.Items and collects a
// LoadReport — the one load-generator loop every workload shares. newClient
// builds the client, and so names the workload and the codec (e.g.
// NewAdmissionWireClient); RunLoad sizes its connection pool from
// cfg.Conns and releases it when done. It fails fast: the first
// transport-level error cancels every connection's remaining batches and
// is returned. Per-item failures are counted and do not stop the run. The
// context cancels the run early.
func RunLoad[Req any, Dec WireDecision](ctx context.Context, newClient func(baseURL string, maxConns int) *Client[Req, Dec], cfg LoadConfig[Req]) (*LoadReport, error) {
	if len(cfg.Items) == 0 {
		return nil, fmt.Errorf("loadgen: no items")
	}
	conns := cfg.conns()
	batchSize := cfg.batch()
	client := newClient(cfg.BaseURL, conns)
	defer client.CloseIdle()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Pre-chunk the repeated sequence into batches, assigned round-robin
	// to workers so each connection sends a similar share.
	var batches [][]Req
	for rep := 0; rep < cfg.repeat(); rep++ {
		for lo := 0; lo < len(cfg.Items); lo += batchSize {
			hi := lo + batchSize
			if hi > len(cfg.Items) {
				hi = len(cfg.Items)
			}
			batches = append(batches, cfg.Items[lo:hi])
		}
	}

	// Pacing: with a target RPS each worker spaces its batch starts so the
	// aggregate rate is RPS.
	var perWorkerInterval time.Duration
	if cfg.RPS > 0 {
		perWorkerInterval = time.Duration(float64(batchSize*conns) / cfg.RPS * float64(time.Second))
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		report   LoadReport
		allLats  []time.Duration
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lats []time.Duration
			var local LoadReport
			next := time.Now()
			for bi := w; bi < len(batches); bi += conns {
				if ctx.Err() != nil {
					break
				}
				if perWorkerInterval > 0 {
					if d := time.Until(next); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
						}
					}
					next = next.Add(perWorkerInterval)
				}
				batch := batches[bi]
				t0 := time.Now()
				ds, err := client.Submit(ctx, batch)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("loadgen: conn %d batch %d: %w", w, bi, err)
						cancel()
					}
					mu.Unlock()
					break
				}
				lats = append(lats, time.Since(t0))
				local.Sent += int64(len(batch))
				local.Batches++
				for _, d := range ds {
					local.Decided++
					if d.ErrorText() != "" {
						local.Errors++
						continue
					}
					d.addTo(&local)
				}
			}
			mu.Lock()
			report.Sent += local.Sent
			report.Decided += local.Decided
			report.Errors += local.Errors
			report.Batches += local.Batches
			report.Accepted += local.Accepted
			report.Preempted += local.Preempted
			report.SetsBought += local.SetsBought
			report.CostAdded += local.CostAdded
			allLats = append(allLats, lats...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	if report.Elapsed > 0 {
		report.Throughput = float64(report.Decided) / report.Elapsed.Seconds()
	}
	report.LatencyP50, report.LatencyP90, report.LatencyP99, report.LatencyMax = latencyQuantiles(allLats)
	return &report, nil
}

// latencyQuantiles sorts the collected batch round trips and returns the
// p50/p90/p99/max quantiles (zeros for an empty sample).
func latencyQuantiles(lats []time.Duration) (p50, p90, p99, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		return lats[int(p*float64(len(lats)-1))]
	}
	return q(0.50), q(0.90), q(0.99), lats[len(lats)-1]
}

// AdversaryResult reports an adaptive-adversary game played over HTTP (the
// acload -adversary mode): the realized instance (for offline OPT
// comparison) and the server-side outcome totals reconstructed from the
// decision stream.
type AdversaryResult struct {
	// Instance is the realized request sequence the adversary produced.
	Instance *problem.Instance
	// Requests, Accepted and Preemptions count the game's decisions;
	// Accepted is the final count (preempted requests excluded).
	Requests, Accepted, Preemptions int
	// RejectedCost is Σ cost of requests rejected on arrival or preempted,
	// reconstructed client-side from the decision stream.
	RejectedCost float64
}

// RunAdversarial plays an adaptive adversary against the server's
// admission workload, submitting one request at a time (the adversary
// needs each outcome before producing the next request). The server must
// front an engine over exactly adv.Capacities().
func RunAdversarial(ctx context.Context, baseURL string, adv workload.Adversary) (*AdversaryResult, error) {
	client := NewAdmissionClient(baseURL, 1)
	defer client.CloseIdle()
	res := &AdversaryResult{
		Instance: &problem.Instance{Capacities: append([]int(nil), adv.Capacities()...)},
	}
	costByID := map[int]float64{} // accepted-and-alive request costs
	var prev problem.Outcome
	for {
		req, ok := adv.Next(prev)
		if !ok {
			break
		}
		res.Instance.Requests = append(res.Instance.Requests, req.Clone())
		ds, err := client.Submit(ctx, []problem.Request{req})
		if err != nil {
			return nil, err
		}
		d := ds[0]
		if d.Error != "" {
			return nil, fmt.Errorf("loadgen: adversary request %d: %s", res.Requests, d.Error)
		}
		res.Requests++
		if d.Accepted {
			res.Accepted++
			costByID[d.ID] = req.Cost
		} else {
			res.RejectedCost += req.Cost
		}
		for _, id := range d.Preempted {
			res.Preemptions++
			res.Accepted--
			res.RejectedCost += costByID[id]
			delete(costByID, id)
		}
		prev = problem.Outcome{Accepted: d.Accepted, Preempted: d.Preempted}
	}
	return res, nil
}
