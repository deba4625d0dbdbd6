package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5} // 1..10, unsorted
	for _, tc := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 0.91, 10},
		{ten, 0.99, 10},
		{ten, 0.1, 1},
		{ten, 0.01, 1},
		{ten, 1, 10},
		{[]float64{42}, 0.99, 42},
		{[]float64{2, 1}, 0.5, 1},
	} {
		if got := quantile(tc.in, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.in, tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	if ten[0] != 7 {
		t.Errorf("quantile reordered its input")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "parent", Start: at(0), End: at(100)},
		// Two overlapping children cover 10–60 once, not 60 ms twice.
		{ID: 2, Parent: 1, Name: "put", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "put", Start: at(30), End: at(60)},
		// A child nested in another changes nothing for the parent.
		{ID: 4, Parent: 1, Name: "inner", Start: at(15), End: at(20)},
		// A child that outlives its parent is clipped to it: 90–100.
		{ID: 5, Parent: 1, Name: "body", Start: at(90), End: at(120)},
		{ID: 6, Parent: 2, Name: "grandchild", Start: at(12), End: at(22)},
		// A zero-length child covers nothing.
		{ID: 7, Parent: 1, Name: "empty", Start: at(70), End: at(70)},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{
		1: 40 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 30 * time.Millisecond,
		5: 30 * time.Millisecond,
		6: 10 * time.Millisecond,
		7: 0,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if lt := aggregate(spans)["put"]; lt.count != 2 || lt.total != 60*time.Millisecond {
		t.Errorf("aggregate put = %+v, want 2 spans, 60ms total", *lt)
	}
}

func TestRouteOfFoldsIDs(t *testing.T) {
	for in, want := range map[string]string{
		"/v1/snapshots/snap-00000003": "/v1/snapshots",
		"/v1/sameas":                  "/v1/sameas",
		"/v1/jobs/job-1/convergence":  "/v1/jobs",
		"/metrics":                    "/metrics",
	} {
		if got := routeOf(in); got != want {
			t.Errorf("routeOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricDefinitionsMatchBenchmarkJSON checks every metric name and unit
// against the naming rules, and the definitions against BENCHMARK.json, so
// the program and the file that declares its contract cannot drift apart.
func TestMetricDefinitionsMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("unit %q of %s is invalid", d.unit, d.name)
			}
			if seen[d.name] {
				t.Errorf("metric %s is defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q should be invalid", bad)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %s (%q), program %s (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
}

func TestCollectRefusesMissingAndUnknownMetrics(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}, {"b", "count"}}
	if _, err := collect(defs, map[string]float64{"a_s": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := collect(defs, map[string]float64{"a_s": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undefined metric was accepted")
	}
	if _, err := collect(defs, map[string]float64{"a_s": math.NaN(), "b": 2}); err == nil {
		t.Error("a NaN metric was accepted")
	}
	got, err := collect(defs, map[string]float64{"a_s": 1.5, "b": 2})
	if err != nil || got["a_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("collect = %v, %v", got, err)
	}
}

// TestSmokeAllWorkloads runs every workload end to end at a tiny scale, with
// and without tracing: the system must be driven without a failure, every
// correctness check must pass, and every declared metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the whole system six times")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 7, seconds: 1, trace: traced, scale: 0.05,
				buildDir: t.TempDir(), log: io.Discard}
			res, err := run(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != want {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d metrics=%d (want %d)",
					w.name, traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics), want)
			}
		}
	}
}
