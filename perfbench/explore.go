package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drv-go/drv/internal/explore"
	imonitor "github.com/drv-go/drv/internal/monitor"
)

// exploreWorkload is one blind drvexplore sweep shape.
type exploreWorkload struct {
	name   string
	family string
	// maxSteps caps each scenario's scheduler step bound, as drvexplore
	// -max-steps does; 0 keeps the family defaults.
	maxSteps int
	// objects restricts the drawn objects, as drvexplore -obj does; empty
	// draws every object of the family.
	objects []string
	// impls restricts the drawn implementations, as drvexplore -impl does.
	impls []string
	// sweep is the fixed sweep size. It is larger than drvexplore's default
	// of 200 so that pool start-up and the one shrink per bug found, which
	// every sweep pays, do not dominate a sweep's time.
	sweep int
}

var (
	// objWorkload caps the step bound at 100, leaves the ledger out and
	// draws only the correct implementations. At larger bounds, and for
	// ledgers even at 120, some scenarios' witness searches run for 30 s or
	// exhaust memory, and at 120 the rarest scenarios' transient memory
	// still decides a run's peak RSS; the seeded-bug implementations draw
	// monitor divergences about once in 5000 scenarios (README.md,
	// "Findings").
	objWorkload = exploreWorkload{
		name: "explore-obj", family: explore.FamObj, maxSteps: 100,
		objects: []string{"register", "counter", "queue", "stack"},
		impls:   []string{"atomic", "aadgms", "collect", "snapshot", "lock"},
		sweep:   1000,
	}
	// msgWorkload keeps the family's step bounds: a cap cuts runs short, and
	// cut runs of the seeded-bug emulations draw monitor divergences too.
	msgWorkload = exploreWorkload{name: "explore-msg", family: explore.FamMsg, sweep: 500}
)

// tracedSweeps is the fixed amount of work of a traced run.
const tracedSweeps = 4

func (w exploreWorkload) gen() explore.GenConfig {
	return explore.GenConfig{Families: []string{w.family}, Objects: w.objects, Impls: w.impls, MaxCrashes: 2, MaxSteps: w.maxSteps}
}

func (w exploreWorkload) size(p params) int {
	return max(4, int(float64(w.sweep)*p.scale))
}

// master is the master seed of sweep k of a run with the given seed.
func master(seed int64, k int) int64 { return seed*1_000_003 + int64(k) + 1 }

// options is the drvexplore default configuration for one sweep.
func (w exploreWorkload) options(m int64, n, workers int) explore.Options {
	return explore.Options{Master: m, Scenarios: n, Workers: workers, Gen: w.gen(), Shrink: true}
}

// checkReport applies the per-sweep gate: no divergences, the full sweep
// accounted for by object, and every bug finding shrunk.
func checkReport(rep *explore.Report, n int) error {
	if len(rep.Failures) > 0 {
		return fmt.Errorf("master %d: %d divergent scenario(s), first %s", rep.Master, len(rep.Failures), rep.Failures[0].Spec)
	}
	if rep.Scenarios != n {
		return fmt.Errorf("master %d: report covers %d scenarios, want %d", rep.Master, rep.Scenarios, n)
	}
	total := 0
	for _, c := range rep.ByObject {
		total += c
	}
	if total != n {
		return fmt.Errorf("master %d: by_object counts %d scenarios, want %d", rep.Master, total, n)
	}
	for _, b := range rep.Bugs {
		if b.Shrunk == "" {
			return fmt.Errorf("master %d: bug %s/%s has no shrunk reproducer", rep.Master, b.Object, b.Impl)
		}
	}
	return nil
}

// reportJSON renders a report without its nondeterministic stage timings.
func reportJSON(rep *explore.Report) string {
	cp := *rep
	cp.Stages = nil
	js, err := json.Marshal(&cp)
	if err != nil {
		return "marshal: " + err.Error()
	}
	return string(js)
}

func runExplore(p params, w exploreWorkload) (*outcome, error) {
	if p.trace {
		return traceExplore(p, w)
	}
	out := &outcome{}
	n := w.size(p)
	warm := w.options(1, n, p.procs) // one untimed sweep of fixed inputs
	setup, err := setupTimes(3, func() error {
		rep, err := explore.Explore(warm)
		if err != nil {
			return err
		}
		return checkReport(rep, warm.Scenarios)
	})
	if err != nil {
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	out.set("setup_s", setup, "s")

	var p50s, p99s []float64
	var scenarios, verdicts int64
	var busy float64 // summed sweep CPU time
	var first *explore.Report
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < p.seconds; k++ {
		opts := w.options(master(p.seed, k), n, p.procs)
		lat := make([]float64, 0, n)
		c0 := cpuSeconds()
		// Explore calls OnScenario under its own lock.
		opts.OnScenario = func(int, *explore.Outcome) {
			lat = append(lat, (cpuSeconds()-c0)*1e3)
		}
		rep, err := explore.Explore(opts)
		cpu := cpuSeconds() - c0
		if err != nil {
			return nil, err
		}
		out.attempted += n
		if err := checkReport(rep, n); err != nil {
			out.failed += max(1, len(rep.Failures))
			out.problem("%v", err)
		}
		if k == 0 {
			first = rep
		}
		scenarios += int64(n)
		verdicts += rep.TotalVerdicts
		busy += cpu
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
	}

	// The expected report for the seed: the first sweep again on one
	// worker. Reports are byte-identical across worker counts.
	ref, err := explore.Explore(w.options(first.Master, n, 1))
	if err != nil {
		return nil, err
	}
	if got, want := reportJSON(first), reportJSON(ref); got != want {
		out.failed += n
		out.problem("master %d: report at %d workers differs from the 1-worker report", first.Master, p.procs)
	}

	out.set("scenarios_per_s", float64(scenarios)/busy, "1/cpu-s")
	out.set("verdicts_per_s", float64(verdicts)/busy, "1/cpu-s")
	// A sweep's cost varies with its draws, and an explore-msg run has only
	// about ten sweeps: the interquartile mean keeps the dearest sweeps from
	// deciding the run, as pooling all outcomes would for p99.
	out.set("verdict_p50_ms", midMean(p50s), "cpu-ms")
	out.set("verdict_p99_ms", midMean(p99s), "cpu-ms")
	out.set("ok_frac", 1-float64(out.failed)/float64(out.attempted), "ratio")
	out.note("%s: %d sweeps of %d scenarios at %d workers, %d latency samples per sweep", w.name, len(p50s), n, p.procs, n)
	return out, nil
}

// exploreTrace accumulates a traced run's per-layer figures.
type exploreTrace struct {
	scenarios  int
	execute    []float64 // seconds per Runner.Execute
	parWall    float64   // wall time of the parallel execute phases
	allocs     uint64
	shrinkS    float64
	shrinkRuns int
	divergent  int
}

// driveSweep runs one sweep the way Explore does — parallel Runner.Execute
// on pooled runners, then an in-order fold that shrinks the first bug per
// implementation — but from the benchmark's own loop, so every call can be
// timed. With a nil tracer nothing is timed.
func driveSweep(tr *tracer, runners []explore.Runner, specs []explore.Spec, acc *exploreTrace) error {
	sweepStart := tr.now()
	outs := make([]*explore.Outcome, len(specs))
	errs := make([]error, len(specs))
	durs := make([]int64, len(specs))
	starts := make([]int64, len(specs))
	var next atomic.Int64
	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				s := tr.now()
				outs[i], errs[i] = runners[w].Execute(specs[i])
				if tr != nil {
					starts[i], durs[i] = s, tr.now()-s
				}
			}
		}()
	}
	wg.Wait()
	parWall := time.Since(t0).Seconds()
	sweep := int32(0)
	if tr != nil {
		acc.allocs += mallocs() - m0
		acc.parWall += parWall
		sweep = tr.add("explore.sweep", 0, sweepStart, tr.now())
		for i := range specs {
			tr.add("explore.execute", sweep, starts[i], starts[i]+durs[i])
			acc.execute = append(acc.execute, float64(durs[i])/1e9)
		}
	}

	runs := 0
	shrinker := runners[0]
	shrinker.Wrap = func(m imonitor.Monitor) imonitor.Monitor { runs++; return m }
	shrunk := map[string]bool{}
	for i, o := range outs {
		if errs[i] != nil {
			return fmt.Errorf("scenario %s: %w", specs[i], errs[i])
		}
		acc.scenarios++
		if len(o.Divergences) > 0 {
			acc.divergent++
		}
		key := o.Spec.Object + "/" + o.Spec.Impl
		if len(o.OracleFailures) == 0 || shrunk[key] {
			continue
		}
		shrunk[key] = true
		s := tr.now()
		t := time.Now()
		if _, still := explore.ShrinkBugSpec(o.Spec, shrinker, 0); len(still) == 0 {
			return fmt.Errorf("bug scenario %s no longer reproduces", o.Spec)
		}
		acc.shrinkS += time.Since(t).Seconds()
		tr.add("explore.shrink", sweep, s, tr.now())
	}
	acc.shrinkRuns += runs
	return nil
}

func newRunners(n int) ([]explore.Runner, func()) {
	runners := make([]explore.Runner, n)
	for w := range runners {
		runners[w] = explore.Runner{Session: imonitor.NewSession()}.Pooled()
	}
	return runners, func() {
		for _, r := range runners {
			r.Session.Close()
		}
	}
}

func traceExplore(p params, w exploreWorkload) (*outcome, error) {
	out := &outcome{}
	n := w.size(p)
	sweeps := make([][]explore.Spec, tracedSweeps)
	for k := range sweeps {
		sweeps[k] = make([]explore.Spec, n)
		for i := range sweeps[k] {
			sweeps[k][i] = explore.NewSpec(master(p.seed, k), i, w.gen())
		}
	}
	runners, closeRunners := newRunners(p.procs)
	defer closeRunners()
	warm := make([]explore.Spec, n)
	for i := range warm {
		warm[i] = explore.NewSpec(1, i, w.gen())
	}
	if err := driveSweep(nil, runners, warm, &exploreTrace{}); err != nil {
		return nil, err
	}

	// The same work twice, untraced and traced, sweep by sweep: the CPU time
	// per scenario of the two gives the tracing overhead.
	tr := newTracer()
	var plain, acc exploreTrace
	var cpuPlain, cpuTraced float64
	for _, specs := range sweeps {
		c0 := cpuSeconds()
		if err := driveSweep(nil, runners, specs, &plain); err != nil {
			return nil, err
		}
		c1 := cpuSeconds()
		if err := driveSweep(tr, runners, specs, &acc); err != nil {
			return nil, err
		}
		cpuPlain += c1 - c0
		cpuTraced += cpuSeconds() - c1
	}
	out.attempted = acc.scenarios
	out.failed = acc.divergent
	if acc.divergent > 0 {
		out.problem("%d divergent scenario(s) in the traced sweeps", acc.divergent)
	}

	// Stage breakdown: Report.Stages is exact only at one worker. The same
	// sweep at nproc workers must produce the same report.
	stageOpts := w.options(master(p.seed, 0), n, 1)
	stageOpts.StageStats = true
	var staged *explore.Report
	var err error
	tr.timed("explore.stage_sweep", 0, func() { staged, err = explore.Explore(stageOpts) })
	if err != nil {
		return nil, fmt.Errorf("stage sweep: %w", err)
	}
	par, err := explore.Explore(w.options(master(p.seed, 0), n, p.procs))
	if err != nil {
		return nil, err
	}
	if reportJSON(staged) != reportJSON(par) {
		out.failed += n
		out.problem("stage sweep: 1-worker and %d-worker reports differ", p.procs)
	}
	if err := checkReport(par, n); err != nil {
		out.failed++
		out.problem("%v", err)
	}
	st := staged.Stages[w.family]
	if st == nil {
		return nil, fmt.Errorf("stage sweep reported no %s stages", w.family)
	}

	exec := sum(acc.execute)
	out.set("explore.execute_s", exec, "s")
	out.set("explore.execute_p50_ms", quantile(acc.execute, 0.5)*1e3, "ms")
	out.set("explore.execute_p99_ms", quantile(acc.execute, 0.99)*1e3, "ms")
	out.set("explore.allocs_per_scenario", float64(acc.allocs)/float64(acc.scenarios), "count")
	out.set("explore.worker_idle_frac", 1-exec/(acc.parWall*float64(p.procs)), "ratio")
	out.set("explore.shrink_s", acc.shrinkS, "s")
	out.set("explore.shrink_runs", float64(acc.shrinkRuns), "count")
	out.set("explore.stage.generate_s", float64(st.Generate.Nanos)/1e9, "s")
	out.set("explore.stage.execute_s", float64(st.Execute.Nanos)/1e9, "s")
	out.set("explore.stage.check_s", float64(st.Check.Nanos)/1e9, "s")
	out.set("sched.steps", float64(staged.TotalSteps), "count")
	out.set("sched.ns_per_step", float64(st.Execute.Nanos)/float64(staged.TotalSteps), "ns")
	out.set("trace.overhead_frac", cpuTraced/cpuPlain-1, "ratio")
	serveLayersAbsent(out)
	path, err := tr.write(p.spans, w.name, p.seed)
	if err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	out.note("%s traced: %d sweeps of %d scenarios, %d execute spans, %d shrink spans, spans in %s",
		w.name, len(sweeps), n, tr.count("explore.execute"), tr.count("explore.shrink"), path)
	return out, nil
}
