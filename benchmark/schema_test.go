package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"ngramstats/internal/mapreduce"
)

// The process and net runners start the test binary again as their workers.
func TestMain(m *testing.M) {
	mapreduce.RunWorkerIfRequested()
	os.Exit(m.Run())
}

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json and the program must name the same workloads and metrics, in
// names a driver accepts.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	d := readDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if d.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program was tuned for %d", d.RunSeconds, runSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %q, the program has %q", i, d.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, decl []declaredMetric, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("%d %s metrics declared, %d in the program", len(decl), kind, len(defs))
		}
		seen := make(map[string]bool)
		for i, def := range defs {
			m := decl[i]
			if m.Name != def.name || m.Unit != def.unit {
				t.Errorf("%s metric %d declared as %s [%s], the program has %s [%s]", kind, i, m.Name, m.Unit, def.name, def.unit)
			}
			if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) || seen[def.name] {
				t.Errorf("%s metric %q [%s]: bad or repeated name, or bad unit", kind, def.name, def.unit)
			}
			seen[def.name] = true
			if want := map[bool]string{false: "lower", true: "higher"}[higherIsBetter[def.name]]; m.Better != want {
				t.Errorf("%s metric %s: better = %q, the program reduces its samples as %q", kind, m.Name, m.Better, want)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", d.EndToEnd, endToEnd, true)
	check("per-layer", d.PerLayer, perLayer, false)
}

// A quick traced run of a plain-index workload and of the chain workload must
// measure every declared metric, end-to-end and per-layer, and get every answer
// right.
func TestQuickRunMeasuresEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	for _, name := range []string{"batch-methods", "serve-chain"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			b := newBench(w.scaled(quickScale), 1, 1, true, t.TempDir())
			rep, err := b.run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d declared", len(rep.Metrics), len(perLayer))
			}
			if _, err := b.collect(endToEnd); err != nil {
				t.Error(err)
			}
			var self float64
			for _, s := range rep.SelfTime {
				self += s
			}
			if self <= 0 {
				t.Error("the traced run recorded no self time")
			}
		})
	}
}
