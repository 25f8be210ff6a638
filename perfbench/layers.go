package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/serve"
)

// layerFigures are the per-layer costs of the serve path, measured by
// calling each layer's public functions on the workload's histories.
type layerFigures struct {
	ref      [][]verdictRec // replay verdicts per history (the gate reference)
	replayMS []float64      // replay wall time per history

	decodeS   float64
	events    int
	replayS   float64
	allocs    uint64
	steps     int
	sketchS   float64
	triples   int
	appendS   float64
	appendEvs int
}

// measureLayers times, history by history: wire decode of the request
// lines, a warm exp/monitor Session.Run, BuildSketch over each verdict
// round's triples, and Incremental.Append/OK over the history.
func measureLayers(tr *tracer, hs []history) (*layerFigures, error) {
	f := &layerFigures{ref: make([][]verdictRec, len(hs)), replayMS: make([]float64, len(hs))}
	s := monitor.NewSession()
	defer s.Close()
	if _, err := s.Run(configOf(&hs[0])); err != nil { // warm the session
		return nil, err
	}
	var sb trace.SketchBuilder
	chk := map[[2]string]*check.Incremental{}
	for i := range hs {
		h := &hs[i]
		root := tr.add("stream.layers", 0, tr.now(), tr.now())

		lines, err := streamLines("layer", h)
		if err != nil {
			return nil, err
		}
		var derr error
		start := time.Now()
		tr.timed("wire.decode", root, func() { derr = decodeLines(lines) })
		f.decodeS += time.Since(start).Seconds()
		f.events += len(h.word)
		if derr != nil {
			return nil, derr
		}

		var res *monitor.Result
		m0 := mallocs()
		start = time.Now()
		replay := tr.timed("monitor.replay", root, func() { res, err = s.Run(configOf(h)) })
		d := time.Since(start).Seconds()
		f.allocs += mallocs() - m0
		if err != nil {
			return nil, fmt.Errorf("replay of history %d: %w", i, err)
		}
		f.replayS += d
		f.replayMS[i] = d * 1e3
		f.steps += res.Steps
		f.ref[i] = verdictsOf(res)

		rounds, resolve := verdictRounds(res)
		start = time.Now()
		tr.timed("sketch.build", replay, func() {
			for r := 1; r <= len(rounds); r++ {
				if _, err = sb.BuildSketch(h.n, rounds[:r], resolve); err != nil {
					break
				}
			}
		})
		f.sketchS += time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("sketch of history %d: %w", i, err)
		}
		f.triples += len(rounds) * (len(rounds) + 1) / 2

		key := [2]string{h.logic, h.object}
		c := chk[key]
		if c == nil {
			c = check.NewIncremental(objectOf(h.object), h.logic == "lin", h.n)
			chk[key] = c
		}
		c.Reset(h.n)
		start = time.Now()
		tr.timed("check.append", root, func() {
			for _, sym := range h.word {
				c.Append(sym)
				if sym.Kind == trace.Res {
					c.OK()
				}
			}
		})
		f.appendS += time.Since(start).Seconds()
		f.appendEvs += len(h.word)
	}
	return f, nil
}

// decodeLines decodes request lines the way the server's reader does: the
// envelope, then the symbol of every symbol event.
func decodeLines(lines [][]byte) error {
	for _, l := range lines {
		var req serve.Request
		if err := json.Unmarshal(l, &req); err != nil {
			return err
		}
		if req.Event != nil && req.Event.Kind == trace.KindSym {
			if _, err := trace.DecodeSymbol(req.Event.Event); err != nil {
				return err
			}
		}
	}
	return nil
}

// verdictRounds orders a replay's triples by the step of the verdict each
// produced. Round r of the Figure-8 monitor builds its sketch from the
// triples published so far, which is the first r of this order. The
// resolver maps operation ids to their invocations.
func verdictRounds(res *monitor.Result) ([]trace.Triple, trace.Resolver) {
	type stepped struct {
		step int
		tr   trace.Triple
	}
	var all []stepped
	invs := map[trace.OpID]trace.Symbol{}
	for p := range res.Responses {
		for k, resp := range res.Responses[p] {
			invs[resp.ID] = res.Invs[p][k]
			if resp.View == nil || k >= len(res.StepAt[p]) {
				continue
			}
			all = append(all, stepped{res.StepAt[p][k], trace.Triple{ID: resp.ID, Inv: res.Invs[p][k], Res: resp.Sym, View: *resp.View}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].step < all[j].step })
	out := make([]trace.Triple, len(all))
	for i := range all {
		out[i] = all[i].tr
	}
	return out, func(id trace.OpID) trace.Symbol { return invs[id] }
}

func (f *layerFigures) set(out *outcome) {
	reps := make([]float64, len(f.replayMS))
	copy(reps, f.replayMS)
	out.set("wire.decode_us_per_event", f.decodeS*1e6/float64(f.events), "us")
	out.set("monitor.replay_s", f.replayS, "s")
	out.set("monitor.replay_p99_ms", quantile(reps, 0.99), "ms")
	out.set("monitor.allocs_per_stream", float64(f.allocs)/float64(len(f.replayMS)), "count")
	out.set("sketch.build_s", f.sketchS, "s")
	out.set("sketch.triples_sorted", float64(f.triples), "count")
	out.set("check.append_ns_per_event", f.appendS*1e9/float64(f.appendEvs), "ns")
	out.set("sched.steps", float64(f.steps), "count")
	out.set("sched.ns_per_step", f.replayS*1e9/float64(f.steps), "ns")
}

// layerMetric is one per-layer metric name with its unit.
type layerMetric struct{ name, unit string }

// exploreLayers are the per-layer metrics only the explore workloads
// exercise; serveLayers those only the serve workloads exercise. sched.*
// and trace.overhead_frac are measured on every workload.
var (
	exploreLayers = []layerMetric{
		{"explore.execute_s", "s"}, {"explore.execute_p50_ms", "ms"}, {"explore.execute_p99_ms", "ms"},
		{"explore.allocs_per_scenario", "count"}, {"explore.worker_idle_frac", "ratio"},
		{"explore.shrink_s", "s"}, {"explore.shrink_runs", "count"},
		{"explore.stage.generate_s", "s"}, {"explore.stage.execute_s", "s"}, {"explore.stage.check_s", "s"},
	}
	serveLayers = []layerMetric{
		{"wire.decode_us_per_event", "us"},
		{"monitor.replay_s", "s"}, {"monitor.replay_p99_ms", "ms"}, {"monitor.allocs_per_stream", "count"},
		{"sketch.build_s", "s"}, {"sketch.triples_sorted", "count"},
		{"check.append_ns_per_event", "ns"},
		{"serve.close_to_done_p50_ms", "ms"}, {"serve.close_to_done_p99_ms", "ms"}, {"serve.queue_wait_ms", "ms"},
		{"serve.order_violations", "count"}, {"loadgen.lag_p99_ms", "ms"},
	}
)

// exploreLayersAbsent and serveLayersAbsent report the layers a workload
// does not run through as zero, so every traced run names every per-layer
// metric; README.md lists which workload exercises which layer.
func exploreLayersAbsent(out *outcome) {
	for _, m := range exploreLayers {
		out.set(m.name, 0, m.unit)
	}
}

func serveLayersAbsent(out *outcome) {
	for _, m := range serveLayers {
		out.set(m.name, 0, m.unit)
	}
}
