package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// serve-short: a closed loop on procs connections, each pipelining batches
// of short mixed streams, ids reopened within and across batches.
const (
	shortPool   = 128 // distinct histories per seed
	shortEvents = 60  // about an extsut-recorded history
	shortBatch  = 16  // streams written back to back
	shortWindow = 2   // batches in flight per connection
)

// shortIDs are the stream ids of a batch's slots: 12 distinct ids, four of
// them reopened after their first stream's close.
var shortIDs = [shortBatch]string{"s0", "s1", "s2", "s3", "s0", "s4", "s5", "s6", "s3", "s7", "s8", "s9", "s6", "s10", "s11", "s0"}

// shortKinds are the logic/object mixes the pool cycles through. SC over a
// queue is left out: its witness searches have a heavy tail (one history in
// 2000 replays 100 times slower than the median) that would make the
// closed-loop latencies hinge on which histories a seed draws.
var shortKinds = [4][2]string{{"lin", "queue"}, {"sc", "register"}, {"lin", "register"}, {"lin", "queue"}}

// serve-long: an open loop on one connection; streams of longEvents events
// arrive over longSpan each, a new one every longSpan/2.
const (
	longEvents = 2400
	longProcs  = 3
	longSpan   = 3 * time.Second
)

type serveInputs struct {
	hs    []history
	ref   [][]verdictRec // per history, its exp/monitor replay
	lines [][][]byte     // per history, its request lines under its slot's id
	block [][]byte       // per history, the lines joined (closed loop)
}

func (in *serveInputs) encode(ids func(h int) string) error {
	in.lines = make([][][]byte, len(in.hs))
	in.block = make([][]byte, len(in.hs))
	for h := range in.hs {
		ls, err := streamLines(ids(h), &in.hs[h])
		if err != nil {
			return err
		}
		in.lines[h], in.block[h] = ls, bytes.Join(ls, nil)
	}
	return nil
}

func genShort(seed int64, scale float64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := max(shortBatch, int(float64(shortPool)*scale)/shortBatch*shortBatch)
	in := &serveInputs{hs: make([]history, pool)}
	for h := range in.hs {
		// Kind and process count cycle with h, so every seed's pool has the
		// same mix and only the interleavings differ.
		kind := shortKinds[h%len(shortKinds)]
		n := 2 + h/len(shortKinds)%2
		bad := h%9 == 4 // every kind gets non-linearizable streams
		var err error
		if in.hs[h], err = genHistory(rng, kind[0], kind[1], n, shortEvents, bad); err != nil {
			return nil, err
		}
	}
	return in, in.encode(func(h int) string { return shortIDs[h%shortBatch] })
}

// longShape is the open-loop schedule: stream count, events per stream,
// arrival span per stream and stagger between stream starts.
func longShape(seconds, scale float64) (streams, events int, span, stagger time.Duration) {
	span = min(longSpan, time.Duration(seconds/2*float64(time.Second)))
	stagger = span / 2
	streams = 1 + int((time.Duration(seconds*float64(time.Second))-span)/stagger)
	events = max(40, int(longEvents*scale))
	return
}

func genLong(seed int64, streams, events int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{hs: make([]history, streams)}
	for h := range in.hs {
		var err error
		if in.hs[h], err = genHistory(rng, "lin", "queue", longProcs, events, false); err != nil {
			return nil, err
		}
	}
	return in, in.encode(func(h int) string { return fmt.Sprintf("long%d", h) })
}

// loopResult is one measured load pass.
type loopResult struct {
	clients []*client
	wall    float64 // seconds from the first request to the last done line
	lag     []float64
	cpu     float64 // process CPU seconds spent in the pass
}

// verdicts counts the verdict lines of finished streams.
func (r *loopResult) verdicts() int {
	n := 0
	for _, c := range r.clients {
		n += c.verdicts
	}
	return n
}

// streams counts the streams sent; finished those with a done line.
func (r *loopResult) streams() int {
	n := 0
	for _, c := range r.clients {
		n += c.registered
	}
	return n
}

func (r *loopResult) finished() int {
	n := 0
	for _, c := range r.clients {
		n += c.finished
	}
	return n
}

func (r *loopResult) orderViolations() int {
	n := 0
	for _, c := range r.clients {
		n += c.orderViolations
	}
	return n
}

// shortLoop runs the closed loop for the given time.
func shortLoop(srv *server, in *serveInputs, conns int, seconds float64, keep bool) (*loopResult, error) {
	res := &loopResult{clients: make([]*client, conns)}
	for i := range res.clients {
		c, err := dial(srv.addr, keep)
		if err != nil {
			return nil, err
		}
		res.clients[i] = c
	}
	c0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	ends := make([]time.Time, conns)
	lags := make([][]float64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for ci, c := range res.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := make(chan time.Time, shortWindow)
			for range shortWindow {
				free <- start
			}
			pool := len(in.hs)
			for k := 0; time.Now().Before(deadline); k++ {
				freed := <-free
				lags[ci] = append(lags[ci], time.Since(freed).Seconds()*1e3)
				b := &batch{left: shortBatch, free: free}
				for slot := range shortBatch {
					h := (ci*shortBatch*37 + k*shortBatch + slot) % pool
					inst := &instance{
						h: &in.hs[h], hidx: h, want: in.ref[h], id: shortIDs[slot], batch: b,
						due0: time.Now(), cpuDue: []float64{cpuSeconds()},
					}
					c.register(inst)
					c.closing(inst, len(in.lines[h])-1)
					if _, err := c.conn.Write(in.block[h]); err != nil {
						errs[ci] = err
						return
					}
					inst.closeAt = time.Now()
				}
			}
			for range shortWindow {
				<-free
			}
			ends[ci] = time.Now()
			errs[ci] = c.finish()
		}()
	}
	wg.Wait()
	for i, e := range ends {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.wall = max(res.wall, e.Sub(start).Seconds())
		res.lag = append(res.lag, lags[i]...)
	}
	res.cpu = cpuSeconds() - c0
	return res, nil
}

// longLoop runs the open loop: every request line is written when due, on
// one connection.
func longLoop(srv *server, in *serveInputs, span, stagger time.Duration, keep bool) (*loopResult, error) {
	type item struct {
		due          time.Duration
		h, line, sym int
		open, last   bool
	}
	var items []item
	for h := range in.hs {
		start := time.Duration(h) * stagger
		events := len(in.hs[h].word)
		for l := range in.lines[h] {
			sym := min(max(l-1, 0), events) // open and meta at 0, close with the last symbol
			items = append(items, item{
				due:  start + time.Duration(sym)*span/time.Duration(events),
				h:    h,
				line: l,
				sym:  sym,
				open: l == 0,
				last: l == len(in.lines[h])-1,
			})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].due < items[j].due })

	c, err := dial(srv.addr, keep)
	if err != nil {
		return nil, err
	}
	res := &loopResult{clients: []*client{c}}
	insts := make([]*instance, len(in.hs))
	c0 := cpuSeconds()
	t0 := time.Now()
	var closed []*instance
	for i := 0; i < len(items); {
		now := time.Since(t0)
		if d := items[i].due - now; d > 0 {
			time.Sleep(d)
			continue
		}
		cpu := cpuSeconds()
		for ; i < len(items) && items[i].due <= now; i++ {
			it := items[i]
			switch {
			case it.open:
				insts[it.h] = &instance{
					h: &in.hs[it.h], hidx: it.h, want: in.ref[it.h], id: fmt.Sprintf("long%d", it.h),
					due0:   t0.Add(it.due),
					cpuDue: make([]float64, len(in.hs[it.h].word)+1),
				}
				c.register(insts[it.h])
			case it.last:
				c.closing(insts[it.h], 1)
				closed = append(closed, insts[it.h])
			default:
				c.line++
			}
			if !it.last {
				insts[it.h].cpuDue[it.sym] = cpu
			}
			c.bw.Write(in.lines[it.h][it.line])
			res.lag = append(res.lag, (now-it.due).Seconds()*1e3)
		}
		if err := c.bw.Flush(); err != nil {
			return nil, err
		}
		for _, inst := range closed {
			inst.closeAt = time.Now()
		}
		closed = closed[:0]
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	res.wall = c.lastDone.Sub(t0).Seconds()
	res.cpu = cpuSeconds() - c0
	return res, nil
}

// serveRun holds what both serve workloads share: inputs, server, passes.
type serveRun struct {
	name string
	p    params
	gen  func() (*serveInputs, error)
	// warm is how many of the histories the warm pass sends.
	warm int
	pass func(srv *server, in *serveInputs, seconds float64, keep bool) (*loopResult, error)
}

func runServeShort(p params) (*outcome, error) {
	return serveRun{
		name: "serve-short",
		p:    p,
		gen:  func() (*serveInputs, error) { return genShort(p.seed, p.scale) },
		warm: shortPool,
		pass: func(srv *server, in *serveInputs, seconds float64, keep bool) (*loopResult, error) {
			return shortLoop(srv, in, p.procs, seconds, keep)
		},
	}.run()
}

func runServeLong(p params) (*outcome, error) {
	return serveRun{
		name: "serve-long",
		p:    p,
		gen: func() (*serveInputs, error) {
			streams, events, _, _ := longShape(p.seconds, p.scale)
			return genLong(p.seed, streams, events)
		},
		warm: 1,
		pass: func(srv *server, in *serveInputs, seconds float64, keep bool) (*loopResult, error) {
			streams, _, span, stagger := longShape(seconds, p.scale)
			sub := &serveInputs{hs: in.hs[:min(streams, len(in.hs))], ref: in.ref, lines: in.lines, block: in.block}
			return longLoop(srv, sub, span, stagger, keep)
		},
	}.run()
}

func (r serveRun) run() (*outcome, error) {
	out := &outcome{}
	var in *serveInputs
	var srv *server
	setup, err := setupTimes(3, func() error {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		var err error
		if in, err = r.gen(); err != nil {
			return err
		}
		if srv, err = startServer(r.p.procs); err != nil {
			return err
		}
		return srv.warm(in.hs[:min(r.warm, len(in.hs))])
	})
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if !r.p.trace {
		out.set("setup_s", setup, "s")
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	// The reference verdicts come first, so the load generator can check
	// every served line as it arrives. A traced run takes them from its
	// layer measurements, which replay every history anyway.
	var layers *layerFigures
	var tr *tracer
	if r.p.trace {
		tr = newTracer()
		if layers, err = measureLayers(tr, in.hs); err != nil {
			return nil, err
		}
		in.ref = layers.ref
	} else if in.ref, err = replayAll(in.hs, r.p.procs); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}

	seconds := r.p.seconds
	var plain *loopResult
	if r.p.trace {
		// Half the time untraced, half traced, on the same inputs: the CPU
		// time per verdict of the two passes gives the tracing overhead.
		seconds /= 2
		if plain, err = r.pass(srv, in, seconds, false); err != nil {
			return nil, err
		}
	}
	res, err := r.pass(srv, in, seconds, r.p.trace)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	passes := []*loopResult{res}
	if plain != nil {
		passes = append(passes, plain)
	}
	for _, ps := range passes {
		out.attempted += ps.streams()
		out.failed += gate(out, ps.clients)
	}
	if r.p.trace {
		recordStreams(tr, res)
		path, err := tr.write(r.p.spans, r.name, r.p.seed)
		if err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
		out.note("%s traced: spans in %s", r.name, path)
	}

	lat := latencies(res.clients)
	if r.p.trace {
		var ctd, wait []float64
		for _, c := range res.clients {
			for _, inst := range c.all {
				if inst.done != nil {
					d := inst.doneAt.Sub(inst.closeAt).Seconds() * 1e3
					ctd = append(ctd, d)
					wait = append(wait, d-layers.replayMS[inst.hidx])
				}
			}
		}
		layers.set(out)
		exploreLayersAbsent(out)
		out.set("serve.close_to_done_p50_ms", quantile(ctd, 0.5), "ms")
		out.set("serve.close_to_done_p99_ms", quantile(ctd, 0.99), "ms")
		out.set("serve.queue_wait_ms", quantile(wait, 0.5), "ms")
		out.set("serve.order_violations", float64(res.orderViolations()), "count")
		out.set("loadgen.lag_p99_ms", quantile(res.lag, 0.99), "ms")
		out.set("trace.overhead_frac", (res.cpu/float64(res.verdicts()))/(plain.cpu/float64(plain.verdicts()))-1, "ratio")
	} else {
		out.set("scenarios_per_s", float64(res.finished())/res.cpu, "1/cpu-s")
		out.set("verdicts_per_s", float64(res.verdicts())/res.cpu, "1/cpu-s")
		out.set("verdict_p50_ms", lat.quantile(0.5), "cpu-ms")
		out.set("verdict_p99_ms", lat.quantile(0.99), "cpu-ms")
		out.set("ok_frac", 1-float64(out.failed)/float64(out.attempted), "ratio")
	}
	nonLin := 0
	for _, h := range in.hs {
		if !h.linearizable {
			nonLin++
		}
	}
	out.note("%s: %d streams (%d distinct histories, %d non-linearizable), %d verdict latency samples, %d order violations, wall %.3fs",
		r.name, res.streams(), len(in.hs), nonLin, lat.n, res.orderViolations(), res.wall)
	return out, nil
}

// recordStreams turns the pass's timestamps into spans: one root span per
// stream from its first due request line to its done line, with the
// close-to-done wait as its child.
func recordStreams(tr *tracer, res *loopResult) {
	at := func(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }
	for _, c := range res.clients {
		for _, in := range c.all {
			if in.done == nil {
				continue
			}
			id := tr.add("serve.stream", 0, at(in.due0), at(in.doneAt))
			tr.add("serve.close_to_done", id, at(in.closeAt), at(in.doneAt))
		}
	}
}
