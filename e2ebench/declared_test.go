package main

import (
	"fmt"
	"sort"
	"testing"
)

// A run must print exactly the metrics BENCHMARK.json declares: the
// end-to-end ones untraced, the per-layer ones traced, each with its
// declared unit. The metric set does not depend on the workload, so the
// cheapest workload at its small size stands for all three.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the churn workload twice")
	}
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, traced := range []bool{false, true} {
		want := e2e
		if traced {
			want = layer
		}
		w, _ := newWorkload("churn", smallSize)
		res, err := run(w, options{workload: "churn", seed: 1, seconds: 0.1, trace: traced})
		if err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace=%v: correct=%v failed=%d", traced, res.Correct, res.Failed)
		}
		for name, m := range res.Metrics {
			unit, ok := want[name]
			if !ok {
				t.Errorf("trace=%v: printed %s, not declared", traced, name)
			} else if unit != m.Unit {
				t.Errorf("trace=%v: %s printed in %s, declared in %s", traced, name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace=%v: declared %s not printed", traced, name)
			}
		}
	}
}
