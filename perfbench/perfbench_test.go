package main

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// smoke shrinks every workload to seconds: tiny worlds, small segments so
// the run log has several, one seed and two scenarios in the sweep.
var smoke = scale{
	panel:  2,
	stride: 3,
	study:  sim.TinyConfig,
	engine: func() sim.Config {
		cfg := sim.TinyConfig()
		cfg.Window.End = cfg.Window.Start.AddDays(paperDays - 1)
		return cfg
	},
	runlog:         sim.TinyConfig,
	segmentBytes:   256 << 10,
	seeks:          2,
	sweepScenarios: []string{"paper-baseline", "burst"},
}

type specFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec specFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogueMatchesBenchmarkJSON holds the metric names, units and
// directions the program prints in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program prints %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program prints %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := slices.Sorted(slices.Values(names)), slices.Sorted(maps.Keys(workloads)); !slices.Equal(got, want) {
		t.Errorf("workloads in BENCHMARK.json = %v, program runs %v", got, want)
	}
}

// TestWorkloadsSmoke runs every workload once, untraced and traced, at
// smoke size: each must pass its correctness gates and print exactly its
// catalogue, with every end-to-end metric positive.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(workloads)) {
		for _, trace := range []bool{false, true} {
			mode := "untraced"
			if trace {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				b := &bench{workload: name, seed: 1, trace: trace, sz: smoke, dir: t.TempDir(), log: os.Stderr}
				res, err := execute(b, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, v.Unit, m.Unit)
					case !trace && !(v.Value > 0):
						t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		// statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestSelfTime nests spans by containment and subtracts covered child time.
func TestSelfTime(t *testing.T) {
	var l spanLog
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	op := l.newOp()
	l.add(op, 0, "sim.run", at(0), at(100))
	l.add(op, 0, "sim.day", at(0), at(50))
	l.add(op, 0, "hook.day", at(30), at(50))
	l.add(op, 1, "sweep.cell", at(10), at(90)) // another goroutine: not nested under sim.run
	root := l.add(op, 0, "bench.op", at(0), at(120))
	l.nest(op, root)
	got := l.selfByLayer(op)
	want := map[string]float64{"bench": 0.020, "sim": 0.080, "hook": 0.020, "sweep": 0.080}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("self %s = %g, want %g", layer, got[layer], w)
		}
	}
}
