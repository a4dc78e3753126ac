package main

import "sort"

// workloadNames lists the workloads BENCHMARK.json declares.
func workloadNames() []string {
	names := []string{"identify_http", "search_pruned_batch", "churn"}
	sort.Strings(names)
	return names
}

func newWorkload(name string, sz size) (workload, bool) {
	switch name {
	case "identify_http":
		return newIdentify(sz), true
	case "search_pruned_batch":
		return newPrunedBatch(sz), true
	case "churn":
		return newChurn(sz), true
	}
	return nil, false
}
