// Command perfbench is the Qurk benchmark. It runs one workload through
// the public engine API (core.New → Register/Define → Engine.Query →
// Rows) on an unpaced clock, checks every query's output, and prints
// the workload's metrics by name and unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// With -trace 0 the metrics are the end-to-end ones, from an untraced
// run. With -trace 1 the same rounds run twice, untraced and then
// traced, and the metrics are the per-layer ones: timings taken around
// calls into each layer from this package, wrappers around the
// interfaces the engine accepts (core.Config.Pool, the crowd oracle),
// and counters the program already exposes. See README.md for what each
// workload loads and which end-to-end metric each layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening share
}

// endToEnd mirrors BENCHMARK.json's end_to_end list (TestMetricListsMatch
// keeps the two in step); the bounds also gate the traced run's inertness.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tuples_per_s", "1/s", "higher", 0.25},
	{"query_ms_p50", "ms", "lower", 0.25},
	{"query_ms_p90", "ms", "lower", 0.25},
	{"spent_cents", "cents", "lower", 0.1},
	{"hits", "count", "lower", 0.1},
	{"vmin_makespan", "min", "lower", 0.2},
	{"f1", "ratio", "higher", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer mirrors BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{name: "core.query_start_us", unit: "us", better: "lower"},
	{name: "core.plancache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "qlang.parse_us", unit: "us", better: "lower"},
	{name: "qlang.taskdef_parse_us", unit: "us", better: "lower"},
	{name: "plan.build_us", unit: "us", better: "lower"},
	{name: "exec.local_ns_per_row", unit: "ns", better: "lower"},
	{name: "exec.alloc_bytes_per_row", unit: "B", better: "lower"},
	{name: "exec.rows_examined_per_result", unit: "count", better: "lower"},
	{name: "taskmgr.submit_us", unit: "us", better: "lower"},
	{name: "taskmgr.batch_fill", unit: "ratio", better: "higher"},
	{name: "taskmgr.shared_hits", unit: "count", better: "higher"},
	{name: "taskmgr.cobatched_items", unit: "count", better: "higher"},
	{name: "taskmgr.admission_wait_vmin_p50", unit: "min", better: "lower"},
	{name: "taskmgr.refund_cents", unit: "cents", better: "lower"},
	{name: "mturk.step_us", unit: "us", better: "lower"},
	{name: "mturk.assignments", unit: "count", better: "lower"},
	{name: "mturk.hit_roundtrip_vmin_p50", unit: "min", better: "lower"},
	{name: "crowd.claim_us", unit: "us", better: "lower"},
	{name: "crowd.busy_frac", unit: "ratio", better: "higher"},
	{name: "crowd.claim_refusal_ratio", unit: "ratio", better: "lower"},
	{name: "crowd.oracle_calls", unit: "count", better: "lower"},
	{name: "infer.extensions_per_hit", unit: "ratio", better: "lower"},
	{name: "infer.assignments_saved_ratio", unit: "ratio", better: "higher"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "store.replay_ms", unit: "ms", better: "lower"},
	{name: "store.replay_records", unit: "count", better: "higher"},
	{name: "store.bytes_per_record", unit: "B", better: "lower"},
	{name: "store.drop_ratio", unit: "ratio", better: "lower"},
	{name: "runtime.cpu_s", unit: "s", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "runtime.sched_latency_us_p90", unit: "us", better: "lower"},
	{name: "runtime.alloc_bytes_per_tuple", unit: "B", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"filter_cascade", "local_scan", "tenants", "warm_restart"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input size multiplier: 1 in runs, smaller in the tests
	commit   string
}

func main() {
	o := options{scale: 1}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds; -trace 1 splits them between the untraced and traced phases (at least three rounds each)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "commit recorded in the result envelope")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and writes the report, ending with the
// result line.
func run(o options, out io.Writer) error {
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	rep, err := measureWorkload(w, o)
	if err != nil {
		return err
	}
	env := envelope(o, w)
	env["detail"] = rep.detail
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rep.res.Metrics))
	for n := range rep.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.res.Metrics[n]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%s\n", envJSON)
	last, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", last)
	return err
}

// envelope records the environment the numbers were measured in.
func envelope(o options, w scenario) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"sizes":      w.sizes(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     o.commit,
		"clock":      "unpaced",
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
