// Command e2ebench is texid's end-to-end benchmark. It builds the serving
// stack in-process from the program's own packages (texsearchd's
// configuration: a 2-worker cluster behind the REST handler on a loopback
// port), drives one workload with two closed-loop clients for a fixed time,
// checks every answer, and prints one JSON line with the metrics declared
// in BENCHMARK.json:
//
//	bash e2ebench/run.sh --workload identify_http --seed 1 --seconds 20 --trace 0
//
// --trace 1 runs the same workload untraced, then replays a sample of its
// operations with spans around each layer's calls and prints the per-layer
// metrics instead, with the reconciliation against the untraced latency
// and the tracing overhead. --steady K runs the workload K times, each in
// its own process, and prints per-metric medians, quartiles and extremes;
// --compare A B checks two such summaries against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase, seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times, one process each, and summarise")
	out := flag.String("out", "", "with --steady: also write the summary JSON here")
	compare := flag.Bool("compare", false, "compare the two --steady summaries named as arguments")
	flag.Parse()
	o.trace = trace == 1

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *steady > 0:
		err = runSteady(o, *steady, *out)
	default:
		err = runOnce(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runOnce(o options) error {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	w, ok := newWorkload(o.workload, fullSize)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	res, err := run(w, o)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
