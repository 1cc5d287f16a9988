package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// declared reads the metric names BENCHMARK.json promises for each mode.
func declared(t *testing.T) (e2e, layer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

// TestSmokeWorkloads runs every workload at tiny sizes, untraced and traced,
// and requires the output checks to have run and passed and every declared
// metric to be reported.
func TestSmokeWorkloads(t *testing.T) {
	e2e, layer := declared(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{Seed: 3, Seconds: 0.2, Dir: t.TempDir(), Tiny: true}
			want := e2e
			if traced {
				cfg.Tracer = newTracer()
				want = layer
			}
			res, detail, err := run(name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, detail["checks_failed"])
			}
			if n, _ := detail["checks"].(int); n == 0 {
				t.Errorf("%s traced=%v: no output check ran", name, traced)
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestInProcessDeterminism requires throughput_mean to repeat bit for bit
// across runs of one seed on the in-process workloads.
func TestInProcessDeterminism(t *testing.T) {
	for _, name := range []string{"churn-arb", "cold-mcf"} {
		var got []float64
		for i := 0; i < 2; i++ {
			res, _, err := run(name, runConfig{Seed: 5, Seconds: 0.1, Dir: t.TempDir(), Tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res.Metrics["throughput_mean"].Value)
		}
		if math.Float64bits(got[0]) != math.Float64bits(got[1]) {
			t.Errorf("%s: throughput_mean %v then %v", name, got[0], got[1])
		}
	}
}

// TestFailedCheckMarksIncorrect: a failing check is recorded and counted.
func TestFailedCheckMarksIncorrect(t *testing.T) {
	rep := newReport()
	rep.check(true, "fine")
	rep.check(false, "broken %d", 7)
	if rep.checked != 2 || len(rep.checks) != 1 || rep.checks[0] != "broken 7" {
		t.Fatalf("checked=%d checks=%v", rep.checked, rep.checks)
	}
}

func TestP90NeedsHundredSamples(t *testing.T) {
	xs := make([]float64, 0, minTailSamples)
	for i := 0; i < minTailSamples-1; i++ {
		xs = append(xs, float64(i))
	}
	if _, ok := p90(xs); ok {
		t.Fatalf("p90 reported from %d samples", len(xs))
	}
	rep := newReport()
	rep.latency("op", xs)
	if _, ok := rep.detail["op_p90_ms"]; ok {
		t.Fatalf("latency reported a p90 from %d samples", len(xs))
	}
	xs = append(xs, float64(minTailSamples-1))
	v, ok := p90(xs)
	if !ok || math.Abs(v-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v, %v; want 89.1", v, ok)
	}
	rep.latency("op", xs)
	if rep.detail["op_p90_ms"] != v || rep.detail["op_n"] != minTailSamples {
		t.Fatalf("latency detail %v", rep.detail)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := median(xs); q != 3 {
		t.Fatalf("median %v", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 %v", q)
	}
	if xs[0] != 5 {
		t.Fatal("quantile sorted its input")
	}
	if q := median([]float64{1, 2}); q != 1.5 {
		t.Fatalf("median of two %v", q)
	}
	if median(nil) != 0 {
		t.Fatal("median of nothing")
	}
}

// TestSelfTime checks self time = duration minus the union of the children's
// intervals, with overlapping children counted once and children clipped to
// their parent.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Name: "a", Layer: "overcast", Start: 10, End: 40, Parent: 0},
		{Name: "b", Layer: "admin", Start: 30, End: 60, Parent: 0},    // overlaps a
		{Name: "a1", Layer: "routing", Start: 15, End: 20, Parent: 1}, // inside a
		{Name: "c", Layer: "admin", Start: 90, End: 120, Parent: 0},   // past root's end
		{Name: "other", Layer: "bench", Start: 200, End: 210, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byLayer := layerSelf(spans)
	if byLayer["bench"] != 40+10 || byLayer["admin"] != 60 || byLayer["overcast"] != 25 || byLayer["routing"] != 5 {
		t.Errorf("layer self times %v", byLayer)
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	var none *Tracer
	if id := none.Begin("bench", "x", -1, 1); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	none.End(-1)
	tr := newTracer()
	root := tr.Begin("bench", "op", -1, 7)
	child := tr.Begin("admin", "call", root, 7)
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 || spans[0].End < spans[1].End || spans[1].End < spans[1].Start {
		t.Fatalf("spans %+v", spans)
	}
}
