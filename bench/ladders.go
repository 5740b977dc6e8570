package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"admission/internal/cluster"
	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/lca"
	"admission/internal/problem"
	"admission/internal/server"
	"admission/internal/setcover"
	"admission/internal/wal"
	"admission/internal/wire"
)

// admissionLadder prices the admission family's layers on session stream
// 0: the §3 core, the sharded engine at 1 and at 4 shards, the wire codec,
// and — where the workload has them — the WAL and the router hop.
func admissionLadder(l *ladder, w *served[problem.Request, server.DecisionJSON], caps []int, ecfg engine.Config, opts admissionOpts) error {
	stream := w.streams[0]
	ref, _, err := w.reference(stream)
	if err != nil {
		return err
	}
	l.add(func() (map[string]metric, error) {
		ns, allocs, err := l.timed("core.offer", len(stream), func(p *pass) error {
			alg, err := core.NewRandomized(caps, ecfg.Algorithm)
			if err != nil {
				return err
			}
			p.start()
			defer p.stop()
			for i, r := range stream {
				if _, err := alg.Offer(i, r); err != nil {
					return err
				}
			}
			return nil
		})
		return coreMetrics(ns, allocs, 1), err
	})
	submit := func(p *pass, k int) error {
		cfg := ecfg
		cfg.Shards = k
		eng, err := engine.New(caps, cfg)
		if err != nil {
			return err
		}
		defer eng.Close()
		p.start()
		defer p.stop()
		for lo := 0; lo < len(stream); lo += l.batch {
			if _, err := eng.SubmitBatch(context.Background(), stream[lo:min(lo+l.batch, len(stream))]); err != nil {
				return err
			}
		}
		return nil
	}
	l.add(runtimeRung(l, "engine.ns_per_item", 1, len(stream), submit))
	l.add(runtimeRung(l, "engine.ns_per_item", shards, len(stream), submit))
	l.add(wireRung(l, stream, server.AdmissionClientWire(),
		func(payload []byte) error {
			var wr wire.AdmissionRequest
			return wire.DecodeAdmissionRequest(payload, &wr)
		},
		func(buf []byte, t int) []byte {
			d := ref[t]
			return wire.AppendAdmissionDecision(buf, &wire.AdmissionDecision{
				ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted,
			})
		}))
	l.path = []string{"engine.ns_per_item", "wire.ns_per_item"}
	if opts.walRoot != "" {
		fingerprint, err := engine.ConfigFingerprint(caps, ecfg)
		if err != nil {
			return err
		}
		l.add(walRung(l, stream, ref, fingerprint))
		l.path = append(l.path, "wal.ns_per_item")
	}
	if opts.routerHop {
		l.add(hopRung(w, caps, ecfg))
	}
	return nil
}

// coreMetrics names the §2/§3 core's cost per core call; calls is how many
// core calls one served item takes.
func coreMetrics(ns, allocs, calls float64) map[string]metric {
	return map[string]metric{
		"core.ns_per_item":     {ns, "ns"},
		"core.allocs_per_item": {allocs, "count"},
		"core.calls_per_item":  {calls, "count"},
	}
}

// walRung prices the decision log as the durable pipeline drives it: two
// appenders take the stream's submissions in turn, append their records,
// and sync unless another cohort's fsync already covered them — so group
// commit engages as it does under two connections.
func walRung(l *ladder, stream []problem.Request, ref []server.DecisionJSON, fingerprint string) rung {
	return func() (map[string]metric, error) {
		var syncs []float64 // µs
		ns, _, err := l.timed("wal.append_sync", len(stream), func(p *pass) error {
			if err := os.RemoveAll(l.walDir); err != nil {
				return err
			}
			log, err := wal.Open(l.walDir, wal.Options{Kind: wal.KindAdmission, Fingerprint: fingerprint})
			if err != nil {
				return err
			}
			var mu sync.Mutex
			next := 0
			var firstErr error
			var wg sync.WaitGroup
			p.start()
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var rec wal.Record
					for {
						mu.Lock()
						lo := next * l.batch
						next++
						if lo >= len(stream) || firstErr != nil {
							mu.Unlock()
							return
						}
						for t := lo; t < min(lo+l.batch, len(stream)); t++ {
							r, d := stream[t], ref[t]
							rec = wal.Record{
								Kind:         wal.KindAdmission,
								AdmissionReq: wire.AdmissionRequest{Edges: r.Edges, Cost: r.Cost},
								AdmissionDec: wire.AdmissionDecision{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted},
							}
							if _, err := log.Append(&rec); err != nil {
								firstErr = err
								break
							}
						}
						target := log.NextSeq()
						mu.Unlock()
						if log.DurableSeq() < target {
							t0 := time.Now()
							err := log.Sync()
							d := time.Since(t0)
							mu.Lock()
							if err != nil && firstErr == nil {
								firstErr = err
							}
							syncs = append(syncs, float64(d.Nanoseconds())/1e3)
							mu.Unlock()
						}
					}
				}()
			}
			wg.Wait()
			p.stop()
			return errors.Join(firstErr, log.Close(), os.RemoveAll(l.walDir))
		})
		return map[string]metric{
			"wal.ns_per_item":     {ns, "ns"},
			"wal.sync_p50_us":     {median(syncs), "us"},
			"wal.syncs_per_kitem": {float64(len(syncs)) / float64(len(stream)) * 1000, "count"},
		}, err
	}
}

// hopRung prices the router tier: one-connection sessions of the same
// stream served directly and through a cluster.Router fronting one
// backend, back to back in alternating order; the hop is their difference.
func hopRung(w *served[problem.Request, server.DecisionJSON], caps []int, ecfg engine.Config) rung {
	routed := *w
	routed.stage = nil
	routed.mount = func(bool, string) (mounted, error) { return mountRouter(caps, ecfg) }
	flip := false
	return func() (map[string]metric, error) {
		flip = !flip
		order := [2]*served[problem.Request, server.DecisionJSON]{w, &routed}
		if flip {
			order[0], order[1] = order[1], order[0]
		}
		var direct, viaRouter float64
		for _, via := range order {
			s, err := via.start(0, false, ladderConns)
			if err != nil {
				return nil, err
			}
			ld := s.closed(ladderConns)
			if err := s.stop(); err != nil {
				return nil, err
			}
			if ld.failed > 0 {
				return nil, fmt.Errorf("router hop: %d items failed", ld.failed)
			}
			ns := float64(ld.wall.Nanoseconds()) / float64(ld.decided)
			if via == w {
				direct = ns
			} else {
				viaRouter = ns
			}
		}
		return map[string]metric{"cluster.hop_ns_per_item": {viaRouter - direct, "ns"}}, nil
	}
}

// mountRouter builds a one-backend cluster on its own loopback listener
// and mounts the router in front of it as the admission workload.
func mountRouter(caps []int, ecfg engine.Config) (mounted, error) {
	ring, err := cluster.NewRing(len(caps), 1, 0)
	if err != nil {
		return mounted{}, err
	}
	bcaps, err := ring.Caps(caps, 0)
	if err != nil {
		return mounted{}, err
	}
	be, err := cluster.NewBackend(bcaps, cluster.BackendConfig{Engine: ecfg})
	if err != nil {
		return mounted{}, err
	}
	bsrv, err := server.New(server.Config{}, server.ClusterBackend(be))
	if err != nil {
		return mounted{}, errors.Join(err, be.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return mounted{}, errors.Join(err, bsrv.Drain(context.Background()), be.Close())
	}
	hs := &http.Server{Handler: bsrv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	stopBackend := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := errors.Join(bsrv.Drain(ctx), hs.Close())
		<-done
		return errors.Join(err, be.Close())
	}
	client := cluster.NewClient("http://"+ln.Addr().String(), cluster.RetryPolicy{MaxAttempts: 2})
	router, err := cluster.NewRouter(caps, []*cluster.Client{client},
		cluster.RouterConfig{Backend: cluster.BackendConfig{Engine: ecfg}, ResyncEvery: time.Hour})
	if err != nil {
		return mounted{}, errors.Join(err, stopBackend())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := router.WaitReady(ctx); err != nil {
		return mounted{}, errors.Join(err, router.Close(), stopBackend())
	}
	return mounted{
		reg:     server.RouterAdmission(router),
		release: func() error { return errors.Join(router.Close(), stopBackend()) },
	}, nil
}

// coverLadder prices the cover family's layers on session stream 0: the
// core's capacity shrinks (each arrival is one, in the §4 reduction), the
// sequential reduction runner, the cover engine at 1 and 4 shards, and the
// wire codec.
func coverLadder(l *ladder, w *served[int, server.CoverDecisionJSON], ins *setcover.Instance, seed uint64) error {
	stream := w.streams[0]
	ref, _, err := w.reference(stream)
	if err != nil {
		return err
	}
	rcfg := setcover.ReductionConfig{Seed: seed}
	l.add(func() (map[string]metric, error) {
		ns, allocs, err := l.timed("core.shrink", len(stream), func(p *pass) error {
			caps, phase1, err := setcover.BuildAdmissionInstance(ins)
			if err != nil {
				return err
			}
			alg, err := core.NewRandomized(caps, setcover.CoreConfigFor(ins, rcfg))
			if err != nil {
				return err
			}
			for i, r := range phase1 {
				if _, err := alg.Offer(i, r); err != nil {
					return err
				}
			}
			p.start()
			defer p.stop()
			for _, j := range stream {
				if _, err := alg.ShrinkCapacity(j); err != nil {
					return err
				}
			}
			return nil
		})
		return coreMetrics(ns, allocs, 1), err
	})
	l.add(func() (map[string]metric, error) {
		ns, _, err := l.timed("setcover.arrive", len(stream), func(p *pass) error {
			rn, err := setcover.NewReductionRunner(ins, rcfg)
			if err != nil {
				return err
			}
			p.start()
			defer p.stop()
			for _, j := range stream {
				if _, err := rn.Arrive(j); err != nil {
					return err
				}
			}
			return nil
		})
		return map[string]metric{"setcover.ns_per_item": {ns, "ns"}}, err
	})
	submit := func(p *pass, k int) error {
		cov, err := coverengine.New(ins, coverengine.Config{Shards: k, Seed: seed})
		if err != nil {
			return err
		}
		defer cov.Close()
		p.start()
		defer p.stop()
		for lo := 0; lo < len(stream); lo += l.batch {
			if _, err := cov.SubmitBatch(context.Background(), stream[lo:min(lo+l.batch, len(stream))]); err != nil {
				return err
			}
		}
		return nil
	}
	l.add(runtimeRung(l, "coverengine.ns_per_item", 1, len(stream), submit))
	l.add(runtimeRung(l, "coverengine.ns_per_item", shards, len(stream), submit))
	l.add(wireRung(l, stream, server.CoverClientWire(),
		func(payload []byte) error {
			_, err := wire.DecodeCoverRequest(payload)
			return err
		},
		func(buf []byte, t int) []byte {
			d := ref[t]
			return wire.AppendCoverDecision(buf, &wire.CoverDecision{
				Seq: d.Seq, Element: d.Element, Arrival: d.Arrival, NewSets: d.NewSets, AddedCost: d.AddedCost,
			})
		}))
	l.path = []string{"coverengine.ns_per_item", "wire.ns_per_item"}
	return nil
}

// queryLadder prices the query family's layers: the core's Offer over the
// source order (every exact query replays a prefix of it), the lca engine
// at 2 workers and at 1 on session stream 0, and the wire codec.
func queryLadder(l *ladder, w *served[lca.Query, server.QueryDecisionJSON], src lca.Source, alg core.Config, ins *problem.Instance) error {
	stream := w.streams[0]
	ref, _, err := w.reference(stream)
	if err != nil {
		return err
	}
	// An exact query at position r replays r+1 arrivals, so the mean is an
	// exact count; the lca rung checks every answer against it.
	var replayed float64
	for _, q := range stream {
		replayed += float64(q.Pos + 1)
	}
	replayed /= float64(len(stream))
	l.add(func() (map[string]metric, error) {
		ns, allocs, err := l.timed("core.offer", len(ins.Requests), func(p *pass) error {
			a, err := core.NewRandomized(ins.Capacities, alg)
			if err != nil {
				return err
			}
			p.start()
			defer p.stop()
			for i, r := range ins.Requests {
				if _, err := a.Offer(i, r); err != nil {
					return err
				}
			}
			return nil
		})
		m := coreMetrics(ns, allocs, replayed)
		m["lca.replayed_per_query"] = metric{replayed, "count"}
		return m, err
	})
	submit := func(p *pass, k int) error {
		eng, err := lca.New(lca.Config{Source: src, Algorithm: alg, Workers: k})
		if err != nil {
			return err
		}
		defer eng.Close()
		p.start()
		defer p.stop()
		for lo := 0; lo < len(stream); lo += l.batch {
			as, err := eng.SubmitBatch(context.Background(), stream[lo:min(lo+l.batch, len(stream))])
			if err != nil {
				return err
			}
			for i, a := range as {
				if want := stream[lo+i].Pos + 1; a.Replayed != want {
					return fmt.Errorf("query at %d replayed %d arrivals, want %d", a.Pos, a.Replayed, want)
				}
			}
		}
		return nil
	}
	l.add(runtimeRung(l, "lca.ns_per_query", 1, len(stream), submit))
	l.add(runtimeRung(l, "lca.ns_per_query", workers, len(stream), submit))
	l.add(wireRung(l, stream, server.QueryClientWire(),
		func(payload []byte) error {
			var q wire.QueryRequest
			return wire.DecodeQueryRequest(payload, &q)
		},
		func(buf []byte, t int) []byte {
			d := ref[t]
			return wire.AppendQueryDecision(buf, &wire.QueryDecision{Pos: d.Pos, Accepted: d.Accepted, Preempted: d.Preempted, Replayed: d.Pos + 1})
		}))
	l.path = []string{"lca.ns_per_query", "wire.ns_per_item"}
	return nil
}
