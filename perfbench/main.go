// Command perfbench is the repository benchmark: it runs one named workload
// against the explorer (internal/explore) or the verdict server
// (internal/serve), checks every output against a reference, and prints one
// JSON result line with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See README.md for the workloads, the
// metric map and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// params are the command-line knobs of one run.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	// scale shrinks every size (sweep length, stream length, stream count)
	// by this factor; the self-test runs at tiny scales.
	scale float64
	// procs is the worker, shard and connection count: nproc.
	procs int
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload returns: its operation counts, any gate
// failures, and the metrics it measured.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	// notes are human-readable lines printed before the result line
	// (sample counts, per-run context).
	notes []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*outcome, error){
	"explore-obj": func(p params) (*outcome, error) { return runExplore(p, objWorkload) },
	"explore-msg": func(p params) (*outcome, error) { return runExplore(p, msgWorkload) },
	"serve-long":  runServeLong,
	"serve-short": runServeShort,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p params
	fs.StringVar(&p.workload, "workload", "", "workload to run: explore-obj, explore-msg, serve-long or serve-short")
	fs.Int64Var(&p.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&p.seconds, "seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1 records per-layer spans and metrics instead of the end-to-end metrics")
	fs.StringVar(&p.spans, "spans", ".bench_build/trace", "directory traced runs write their span dump to")
	fs.Float64Var(&p.scale, "scale", 1, "size factor for every input (the self-test uses small values)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p.trace = *trace == 1
	p.procs = runtime.NumCPU()
	wl, ok := workloads[p.workload]
	if !ok || p.seconds <= 0 || p.scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	out, err := wl(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", p.workload, err)
		return 1
	}
	if !p.trace {
		out.set("peak_rss_mb", peakRSSMiB(), "MiB")
	}
	for _, pr := range out.problems {
		fmt.Fprintf(stderr, "perfbench: gate: %s\n", pr)
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setupTimes runs set-up reps times and returns the median duration in
// seconds. Every repetition does the full set-up; the caller keeps the state
// of the last one.
func setupTimes(reps int, setup func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for range reps {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}
