package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, spec := range []bulkSpec{dblpMem(true), cliqueTCPWAL(true)} {
		a, err := spec.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := spec.generate(7)
		c, _ := spec.generate(8)
		if a.Format() != b.Format() {
			t.Errorf("%s: same seed, different definitions", spec.topo.Name)
		}
		if a.Format() == c.Format() {
			t.Errorf("%s: different seeds, same definition", spec.topo.Name)
		}
	}
	steps := liveLadder(4, false)
	if !reflect.DeepEqual(liveSchedule(7, steps), liveSchedule(7, steps)) {
		t.Error("same seed, different insert schedules")
	}
	if reflect.DeepEqual(liveSchedule(7, steps), liveSchedule(8, steps)) {
		t.Error("different seeds, same insert schedule")
	}
	if !reflect.DeepEqual(shipTuples(7, "A", 50), shipTuples(7, "A", 50)) {
		t.Error("same seed, different replica-ship tuples")
	}
}

func TestScheduleFollowsTheLadder(t *testing.T) {
	steps := []liveStep{{500, time.Second}, {2000, 500 * time.Millisecond}}
	sched := liveSchedule(1, steps)
	if len(sched[0]) != 500 || len(sched[1]) != 1000 {
		t.Fatalf("got %d and %d inserts, want 500 and 1000", len(sched[0]), len(sched[1]))
	}
	if got := sched[1][999].at; got != 999*500*time.Microsecond {
		t.Errorf("last insert of the 2000/s step due at %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: "handle", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: "send", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: "send", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Op: "send", Start: 90, End: 140}, // sticks out of the parent
		{ID: 5, Op: "send", Start: 200, End: 230},           // no parent, no children
	}
	want := map[int]int64{1: 100 - (50 - 10) - (100 - 90), 2: 20, 3: 30, 4: 50, 5: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTraceLogKeepsParentsAcrossStretches(t *testing.T) {
	var log traceLog
	r := newRecorder()
	for i := 0; i < 2; i++ {
		tr := newTracer()
		tr.spans = []span{{ID: 1, Op: "handle", End: 10}, {ID: 2, Parent: 1, Op: "send", End: 5}}
		log.absorb(tr, r)
	}
	if got := log.spans[3]; got.ID != 4 || got.Parent != 3 {
		t.Errorf("second stretch's send is %+v, want id 4 under parent 3", got)
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01} }
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{tight(100), tight(105), "same"},
		{tight(100), tight(120), "worse"},
		{tight(100), tight(80), "better"},
		{tight(100), []float64{80, 100, 120, 140}, "unresolved"},
		{tight(100), nil, "missing"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	higher := metricDef{Better: "higher", Bound: 0.10}
	if got := verdict(higher, tight(100), tight(80)); got != "worse" {
		t.Errorf("a falling higher-is-better metric is %s", got)
	}
}

// TestManifest keeps BENCHMARK.json and the definitions in this package in
// step.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []workloadDef
	for _, w := range workloads {
		names = append(names, workloadDef{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(m.Workloads, names) {
		t.Errorf("workloads differ:\n%+v\n%+v", m.Workloads, names)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", m.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// TestSmoke runs every workload at its smallest sizing, untraced and traced,
// and checks the result line against the metric lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real clusters; skipped in -short mode")
	}
	dir := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var out, errs bytes.Buffer
		code := realMain([]string{"-smoke", "-seconds", "0.2", "-trace", trace, "-dir", dir}, &out, &errs)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s\n%s", trace, code, errs.String(), out.String())
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		results := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			results++
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s: %s", trace, line)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("trace %s: metric %s missing or in %q", trace, d.Name, v.Unit)
				}
				if trace == "0" && v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v", d.Name, v.Value)
				}
			}
		}
		if results != len(workloads) {
			t.Errorf("trace %s: %d result lines, want %d", trace, results, len(workloads))
		}
	}
}
