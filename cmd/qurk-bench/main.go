// Command qurk-bench regenerates every experiment table from
// EXPERIMENTS.md (the paper's evaluation artifacts) and prints them,
// plus the load-harness benchmarks. Each load mode writes the
// load.Reports it ran to BENCH_<mode>.json under one schema — the go
// toolchain, GOMAXPROCS and the reports in run order — and prints them.
//
//	qurk-bench                  # all experiments, default scale
//	qurk-bench -only E3 -seed 7 # one experiment, custom seed
//	qurk-bench -scale 3         # 3× larger workloads
//	qurk-bench -only STORE      # load.Verify of warmstart: cold run, warm run; BENCH_store.json
//	qurk-bench -only SORT       # ranking-strategy economics; BENCH_sort.json
//	qurk-bench -only MT         # load.Verify of multitenant: shared, rerun, unshared; BENCH_mt.json
//	qurk-bench -only BACKEND    # worker-backend routing economics; BENCH_backend.json
//	qurk-bench -only INFER      # adaptive redundancy on a noisy crowd; BENCH_infer.json
//	qurk-bench -only EXEC       # executor pipelines vs baseline; BENCH_exec.json
//	qurk-bench -only OBS        # tracing on/off A/B overhead + volume; BENCH_obs.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/load"
)

// benchFile is the schema of every load-backed BENCH_*.json.
type benchFile struct {
	Go         string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Reports    []load.Report `json:"reports"`
}

// writeBench writes reports to BENCH_<mode>.json.
func writeBench(mode string, reports ...load.Report) error {
	data, err := json.MarshalIndent(benchFile{runtime.Version(), runtime.GOMAXPROCS(0), reports}, "", "  ")
	if err != nil {
		return err
	}
	path := "BENCH_" + strings.ToLower(mode) + ".json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// benchRun runs cfg once, prints its report and writes it.
func benchRun(mode string, cfg load.Config) error {
	rep, err := load.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return writeBench(mode, rep)
}

// benchVerify runs load.Verify on cfg, prints it and writes its runs.
func benchVerify(mode string, cfg load.Config) error {
	v, err := load.Verify(cfg)
	fmt.Print(v.Text)
	if err != nil {
		return err
	}
	return writeBench(mode, v.Runs...)
}

func main() {
	seed := flag.Int64("seed", 1, "crowd and workload random seed")
	only := flag.String("only", "", "run a single experiment (E1..E11, STORE, SORT, MT, BACKEND, EXEC, INFER, OBS)")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	flag.Parse()
	s := max(*scale, 1)
	table := func(gen func() experiments.Table) func() error {
		return func() error { fmt.Println(gen().String()); return nil }
	}

	modes := []struct {
		id  string
		run func() error
	}{
		{"E1", table(func() experiments.Table { return experiments.E1Pipeline(*seed) })},
		{"E2", table(func() experiments.Table { return experiments.E2Cache(8*s, *seed) })},
		{"E3", table(func() experiments.Table { return experiments.E3JoinInterfaces(8*s, 16*s, *seed) })},
		{"E4", table(func() experiments.Table { return experiments.E4TaskModel(4, 30*s, *seed) })},
		{"E5", table(func() experiments.Table { return experiments.E5PreFilter(6*s, 14*s, *seed) })},
		{"E6", table(func() experiments.Table { return experiments.E6Redundancy(40*s, *seed) })},
		{"E7", table(func() experiments.Table { return experiments.E7Adaptive(40*s, *seed) })},
		{"E8", table(func() experiments.Table { return experiments.E8Batching(40*s, *seed) })},
		{"E9", table(func() experiments.Table { return experiments.E9Sort(12*s, *seed) })},
		{"E10", table(func() experiments.Table { return experiments.E10Async(16*s, *seed) })},
		{"E11", table(func() experiments.Table { return experiments.E11SpamDefense(40*s, *seed) })},
		{"STORE", func() error {
			// The durable store's cold→warm payoff: Verify's first run
			// pays for every question into a fresh store, its rerun
			// replays the store and answers from it.
			dir, err := os.MkdirTemp("", "qurk-store-bench")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			return benchVerify("STORE", load.Config{Workload: load.WorkloadWarmstart,
				Tuples: 2000 * s, Workers: 500, Seed: *seed, StorePath: dir})
		}},
		{"SORT", func() error {
			return benchRun("SORT", load.Config{Workload: load.WorkloadSort, Tuples: 120 * s, Workers: 200, Seed: *seed})
		}},
		{"MT", func() error {
			// HITs and cents saved by cross-query co-batching at identical
			// per-query results: Verify adds the sharing-off baseline.
			return benchVerify("MT", load.Config{Workload: load.WorkloadMultiTenant,
				Queries: 100 * s, Tuples: 600 * s, Workers: 300, Seed: *seed})
		}},
		{"BACKEND", func() error {
			return benchRun("BACKEND", load.Config{Workload: load.WorkloadHybridCrowd, Tuples: 2000 * s, Workers: 500, Seed: *seed})
		}},
		{"EXEC", runExecBench},
		{"INFER", func() error {
			// Unlike the workload's perfect-crowd default, the bench crowd
			// is noisy (0.93 mean skill), so the adaptive phase shows real
			// extensions, not just floor posting — and Check's identical-
			// fingerprint contract does not apply.
			return benchRun("INFER", load.Config{Workload: load.WorkloadInference,
				Tuples: 2000 * s, Workers: 500, Seed: *seed,
				Skill: 0.93, SkillStd: 0.02, Spam: 1e-12, Abandon: 1e-12, BatchPenalty: 1e-12})
		}},
		{"OBS", func() error { return runObsBench(*seed, s) }},
	}

	matched := false
	for _, m := range modes {
		if *only != "" && !strings.EqualFold(*only, m.id) {
			continue
		}
		matched = true
		if err := m.run(); err != nil {
			fmt.Fprintf(os.Stderr, "qurk-bench: %s: %v\n", m.id, err)
			os.Exit(1)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "qurk-bench: unknown experiment %q (want E1..E11, STORE, SORT, MT, BACKEND, EXEC, INFER, OBS)\n", *only)
		os.Exit(2)
	}
}
