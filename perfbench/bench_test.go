package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/internal/explore"
	"github.com/drv-go/drv/internal/serve"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at a tiny size and decodes its result line.
func runTiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "1", "-scale", "0.05", "-spans", t.TempDir()}
	if trace {
		args = append(args, "-trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: result %+v, stderr %s", workload, res, stderr.String())
	}
	return res
}

// TestEveryMetricMatchesSpec runs every workload untraced and traced and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units.
func TestEveryMetricMatchesSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res := runTiny(t, wl.Name, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestLayerListsCoverSpec pins the per-layer names a workload reports as
// absent to BENCHMARK.json, so a renamed metric cannot drop out of one side.
func TestLayerListsCoverSpec(t *testing.T) {
	names := map[string]string{}
	for _, m := range loadSpec(t).PerLayer {
		names[m.Name] = m.Unit
	}
	for _, m := range append(append([]layerMetric{}, exploreLayers...), serveLayers...) {
		if unit, ok := names[m.name]; !ok || unit != m.unit {
			t.Errorf("layer metric %s (%s) is not in BENCHMARK.json as such", m.name, m.unit)
		}
	}
}

// TestGateTripsOnCorruptedStreams feeds the serve gate a served verdict
// stream that is correct, then corrupted in each way the gate must catch.
func TestGateTripsOnCorruptedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	good, err := genHistory(rng, "lin", "queue", 2, 60, false)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := genHistory(rng, "lin", "queue", 2, 60, true)
	if err != nil {
		t.Fatal(err)
	}
	if bad.linearizable {
		t.Fatal("corrupted history labelled linearizable")
	}
	replay := func(h *history) []verdictRec {
		res, err := monitor.Run(configOf(h))
		if err != nil {
			t.Fatal(err)
		}
		return verdictsOf(res)
	}
	// serve feeds the verdict lines through the client's check and closes
	// the stream with a done line that matches what was sent.
	served := func(h *history, want, lines []verdictRec) *instance {
		in := &instance{h: h, want: want, opened: 1}
		for _, v := range lines {
			in.observe(v)
		}
		in.done = &serve.Done{Events: len(h.word), Verdicts: in.verdicts, NO: in.no}
		return in
	}

	ref := replay(&good)
	if err := checkInstance(served(&good, ref, ref)); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	edit := func(f func([]verdictRec) []verdictRec) []verdictRec {
		return f(append([]verdictRec(nil), ref...))
	}
	lines := map[string][]verdictRec{
		"flipped verdict": edit(func(vs []verdictRec) []verdictRec {
			v := &vs[len(vs)/2]
			v.Verdict = map[string]string{"YES": "NO", "NO": "YES"}[v.Verdict]
			return vs
		}),
		"shifted step":   edit(func(vs []verdictRec) []verdictRec { vs[0].Step++; return vs }),
		"dropped line":   edit(func(vs []verdictRec) []verdictRec { return vs[1:] }),
		"extra line":     edit(func(vs []verdictRec) []verdictRec { return append(vs, vs[0]) }),
		"reordered proc": edit(func(vs []verdictRec) []verdictRec { vs[0], vs[1] = vs[1], vs[0]; return vs }),
	}
	for name, ls := range lines {
		if err := checkInstance(served(&good, ref, ls)); err == nil {
			t.Errorf("%s: gate passed a corrupted stream", name)
		}
	}
	summaries := map[string]func(in *instance){
		"missing done":  func(in *instance) { in.done = nil },
		"truncated":     func(in *instance) { in.done.Truncated = true },
		"error line":    func(in *instance) { in.errs = []string{"boom"} },
		"twice opened":  func(in *instance) { in.opened = 2 },
		"short history": func(in *instance) { in.done.Events-- },
		"verdict count": func(in *instance) { in.done.Verdicts++ },
	}
	for name, corrupt := range summaries {
		in := served(&good, ref, ref)
		corrupt(in)
		if err := checkInstance(in); err == nil {
			t.Errorf("%s: gate passed a corrupted stream", name)
		}
	}

	// A non-linearizable stream must draw a NO: all-YES lines fail even
	// against a reference that is equally wrong.
	badRef := replay(&bad)
	if err := checkInstance(served(&bad, badRef, badRef)); err != nil {
		t.Fatalf("clean non-linearizable stream rejected: %v", err)
	}
	allYes := append([]verdictRec(nil), badRef...)
	for i := range allYes {
		allYes[i].Verdict = "YES"
	}
	if err := checkInstance(served(&bad, allYes, allYes)); err == nil {
		t.Error("non-linearizable stream without a NO passed the gate")
	}
}

// TestExploreGateTrips checks the explore gate on a clean report and on
// corrupted copies.
func TestExploreGateTrips(t *testing.T) {
	opts := objWorkload.options(5, 12, 1)
	rep, err := explore.Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(rep, 12); err != nil {
		t.Fatalf("clean report rejected: %v", err)
	}
	div := *rep
	div.Failures = []explore.Failure{{Spec: "drv2:obj/queue/lock:n=2:seed=1:pol=random:steps=10:ops=1:mb=0.5"}}
	if checkReport(&div, 12) == nil {
		t.Error("report with a divergence passed")
	}
	if checkReport(rep, 13) == nil {
		t.Error("report of the wrong size passed")
	}
	other := *rep
	other.TotalSteps++
	if reportJSON(&other) == reportJSON(rep) {
		t.Error("reports that differ render the same")
	}
}
