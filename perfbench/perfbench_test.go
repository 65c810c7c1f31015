package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// everyWorkload lists the per-layer metrics every workload drives.
var everyWorkload = []string{
	"core.query_start_us", "qlang.parse_us", "qlang.taskdef_parse_us", "plan.build_us",
	"exec.local_ns_per_row", "exec.alloc_bytes_per_row", "exec.rows_examined_per_result",
	"taskmgr.batch_fill", "mturk.assignments", "mturk.hit_roundtrip_vmin_p50",
	"crowd.claim_us", "crowd.busy_frac", "crowd.oracle_calls",
	"runtime.cpu_s", "runtime.alloc_bytes_per_tuple", "runtime.sched_latency_us_p90",
}

// drives lists the per-layer metrics a workload drives beyond
// everyWorkload (see README.md). Each must read nonzero there at the
// test's size, so a probe that silently stops counting fails the test.
var drives = map[string][]string{
	"filter_cascade": {"taskmgr.submit_us", "mturk.step_us"},
	"local_scan":     {"core.plancache_hit_ratio"},
	"tenants":        {"core.plancache_hit_ratio", "taskmgr.shared_hits", "taskmgr.cobatched_items"},
	"warm_restart": {"store.replay_ms", "store.replay_records", "store.bytes_per_record",
		"infer.extensions_per_hit", "infer.assignments_saved_ratio", "cache.hit_ratio"},
}

// TestWorkloadsSmall runs every workload at a quarter of its size (large
// enough that tenants' two clients reliably share HITs) in both modes and
// checks that each emits every metric of its mode, finite, with no
// failed query or output check, and that the per-layer metrics the
// workload drives are nonzero.
func TestWorkloadsSmall(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0, trace: trace, scale: 0.25}
			var out bytes.Buffer
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v", name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want a finite value in %s",
						name, trace, m.name, got, ok, m.unit)
				}
			}
			if !trace {
				continue
			}
			for _, m := range append(append([]string(nil), everyWorkload...), drives[name]...) {
				if res.Metrics[m].Value == 0 {
					t.Errorf("%s: %s reads 0, but the workload drives it", name, m)
				}
			}
		}
	}
}

// TestMetricListsMatch keeps the metric and workload lists here in step
// with BENCHMARK.json.
func TestMetricListsMatch(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames, names)
	}
	for _, c := range []struct {
		ours []metricDef
		spec []metric
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.ours) != len(c.spec) {
			t.Fatalf("%d metrics, BENCHMARK.json has %d", len(c.ours), len(c.spec))
		}
		for i, m := range c.ours {
			s := c.spec[i]
			if m.name != s.Name || m.unit != s.Unit || m.better != s.Better || m.bound != s.Bound {
				t.Errorf("metric %d: %+v, BENCHMARK.json has %+v", i, m, s)
			}
		}
	}
}
