package main

import "fmt"

// newWorkload builds the named workload's inputs from the seed, sized
// by o.scale (1 is the benchmark's size; the tests run smaller ones).
func newWorkload(o options) (scenario, error) {
	n := func(full, least int) int { return max(int(float64(full)*o.scale), least) }
	switch o.workload {
	case "filter_cascade":
		return &filterCascade{seed: o.seed, photos: n(2500, 20)}, nil
	case "local_scan":
		return newLocalScan(o.seed, n(50000, 2000), n(20, 3)), nil
	case "tenants":
		return &tenants{seed: o.seed, queries: n(1000, 6), photos: n(400, 16), celebs: n(100, 10), items: n(200, 20)}, nil
	case "warm_restart":
		return &warmRestart{seed: o.seed, photos: n(4000, 40)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}
