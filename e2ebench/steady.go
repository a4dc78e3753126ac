package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// summary is what --steady prints and saves: every run's result line and,
// per metric, the median, quartiles, spread and extremes over the runs.
type summary struct {
	Workload string                `json:"workload"`
	Seeds    []int64               `json:"seeds"`
	Runs     []result              `json:"runs"`
	Stats    map[string]metricStat `json:"stats"`
}

type metricStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// runSteady runs the workload k times, each in its own process with seeds
// o.seed, o.seed+1, ..., and prints per-metric statistics.
func runSteady(o options, k int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	s := summary{Workload: o.workload}
	for i := 0; i < k; i++ {
		seed := o.seed + int64(i)
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", trace)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("run with seed %d: last line is not a result: %w", seed, err)
		}
		fmt.Fprintf(os.Stderr, "seed %d: correct=%v attempted=%d failed=%d\n", seed, r.Correct, r.Attempted, r.Failed)
		s.Seeds = append(s.Seeds, seed)
		s.Runs = append(s.Runs, r)
	}
	s.Stats = stats(s.Runs)
	printSummary(s)
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

func stats(runs []result) map[string]metricStat {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]metricStat{}
	for name, v := range vals {
		q1, q2, q3 := quartiles(v)
		st := metricStat{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Min: v[0], Max: v[0]}
		if q2 != 0 {
			st.Spread = (q3 - q1) / q2
		}
		for _, x := range v {
			st.Min, st.Max = min(st.Min, x), max(st.Max, x)
		}
		out[name] = st
	}
	return out
}

func printSummary(s summary) {
	fmt.Printf("%s, %d runs, seeds %v\n", s.Workload, len(s.Runs), s.Seeds)
	fmt.Printf("%-28s %14s %14s %14s %8s %14s %14s %s\n", "metric", "median", "q1", "q3", "spread", "min", "max", "unit")
	for _, name := range sortedKeys(s.Stats) {
		st := s.Stats[name]
		fmt.Printf("%-28s %14.6g %14.6g %14.6g %7.2f%% %14.6g %14.6g %s\n",
			name, st.Median, st.Q1, st.Q3, st.Spread*100, st.Min, st.Max, st.Unit)
	}
	for i, r := range s.Runs {
		fmt.Printf("seed %d: correct=%v failed %d of %d\n", s.Seeds[i], r.Correct, r.Failed, r.Attempted)
	}
}

// declared is the part of BENCHMARK.json the benchmark checks itself
// against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// runCompare checks two --steady summaries of one workload against the
// end-to-end bounds: each spread but setup_s's within its bound, no median
// of the second set worse than the first's by more than the bound, and
// the same share of failed operations in both.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: --compare first.json second.json")
	}
	var sets [2]summary
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	d, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bad []string
	fmt.Printf("%-20s %12s %12s %9s %8s %8s %7s\n", "metric", "first", "second", "worse", "spread1", "spread2", "bound")
	for _, e := range d.EndToEnd {
		a, b := sets[0].Stats[e.Name], sets[1].Stats[e.Name]
		worse := (b.Median - a.Median) / a.Median
		if e.Better == "higher" {
			worse = -worse
		}
		fmt.Printf("%-20s %12.6g %12.6g %8.2f%% %7.2f%% %7.2f%% %6.0f%%\n",
			e.Name, a.Median, b.Median, worse*100, a.Spread*100, b.Spread*100, e.Bound*100)
		if worse > e.Bound {
			bad = append(bad, fmt.Sprintf("%s: second median worse by %.1f%%", e.Name, worse*100))
		}
		if e.Name != "setup_s" && (a.Spread > e.Bound || b.Spread > e.Bound) {
			bad = append(bad, fmt.Sprintf("%s: spread above its bound", e.Name))
		}
	}
	share := func(s summary) string {
		f, n := 0, 0
		for _, r := range s.Runs {
			f += r.Failed
			n += r.Attempted
		}
		return fmt.Sprintf("%d/%d", f, n)
	}
	for _, s := range sets {
		for _, r := range s.Runs {
			if r.Failed*s.Runs[0].Attempted != s.Runs[0].Failed*r.Attempted {
				bad = append(bad, "failed share differs between runs")
			}
		}
	}
	fmt.Printf("failed operations: %s and %s\n", share(sets[0]), share(sets[1]))
	if len(bad) > 0 {
		return fmt.Errorf("sets disagree: %s", strings.Join(bad, "; "))
	}
	fmt.Println("the two sets agree within the bounds")
	return nil
}
