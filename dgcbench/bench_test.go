package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{100, 0.9, 10}, {99, 0.9, 9}, {110, 0.9, 11},
		{1000, 0.99, 10}, {999, 0.99, 9}, {1, 0.5, 0}, {0, 0.9, 0},
	} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
		if got := enoughForTail(c.n, c.q); got != (c.want >= minBeyond) {
			t.Errorf("enoughForTail(%d, %g) = %v", c.n, c.q, got)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var d durations
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := d.quantile(q); got != want {
			t.Errorf("quantile(%g) = %d, want %d", q, got, want)
		}
	}
	// Exactly minBeyond samples lie above the reported p90 of 100 samples.
	p90, above := d.quantile(0.9), 0
	for _, x := range d {
		if x > p90 {
			above++
		}
	}
	if above != samplesBeyond(len(d), 0.9) {
		t.Errorf("%d samples above p90, samplesBeyond says %d", above, samplesBeyond(len(d), 0.9))
	}
	if (durations{}).quantile(0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	if r := (ratio{40, 20}); r.value() != 2 || r.den != 20 {
		t.Errorf("got %v over base %v, want 2 over 20", r.value(), r.den)
	}
	if (ratio{5, 0}).value() != 0 {
		t.Error("a ratio over no base should read 0")
	}
	rep := newReport("cycles", 1, false)
	rep.setRatio("msgs_per_swept_obj", ratio{12, 4})
	if m := rep.Metrics["msgs_per_swept_obj"]; m.Value != 3 || m.Base != 4 {
		t.Errorf("reported %+v, want value 3 base 4", m)
	}
	if math.Abs(pctOver(120, 100)-20) > 1e-9 || pctOver(1, 0) != 0 {
		t.Error("pctOver")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 30, end: 50}}, 70},
		{"overlapping counted once", []span{{start: 10, end: 40}, {start: 30, end: 60}}, 50},
		{"nested counted once", []span{{start: 10, end: 60}, {start: 20, end: 30}}, 50},
		{"clipped to the parent", []span{{start: -50, end: 10}, {start: 90, end: 200}}, 80},
		{"outside the parent", []span{{start: 150, end: 200}}, 100},
		{"touching", []span{{start: 10, end: 20}, {start: 20, end: 30}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayersSumSelfTimePerName(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "round", parent: -1, start: 0, end: 100},
		{name: "lgc.run", parent: 0, start: 0, end: 30},
		{name: "transport.settle", parent: 0, start: 30, end: 100},
		{name: "node.handle_us.CDM", parent: 2, start: 40, end: 60},
		{name: "node.handle_us.CDM", parent: 2, start: 70, end: 80},
		{name: "open", parent: 0, start: 90, end: -1},
	}}
	l := tr.layers()
	want := map[string]layerTime{
		"round":              {self: 0, total: 100, count: 1},
		"lgc.run":            {self: 30, total: 30, count: 1},
		"transport.settle":   {self: 40, total: 70, count: 1},
		"node.handle_us.CDM": {self: 30, total: 30, count: 2},
	}
	if len(l) != len(want) {
		t.Fatalf("layers = %v, want %v", l, want)
	}
	for name, w := range want {
		if l[name] != w {
			t.Errorf("%s = %+v, want %+v", name, l[name], w)
		}
	}
	var nilTracer *tracer
	if i := nilTracer.begin("x", 0, -1); i != -1 || len(nilTracer.layers()) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark prints
// in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
