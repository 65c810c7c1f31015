package load

import (
	"strings"
	"testing"
	"time"
)

// TestVerifyEveryWorkload runs the -verify path on every workload at a
// small size: each run passes Check, and its untraced rerun agrees with
// it under the workload's rule (VirtualDiff by default).
func TestVerifyEveryWorkload(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// extra asserts what a case shows beyond Verify's rule.
		extra func(t *testing.T, v Verification)
	}{
		{name: "filter", cfg: Config{Workload: WorkloadFilter, Tuples: 200, Workers: 120, Seed: 11}},
		{name: "join", cfg: Config{Workload: WorkloadJoin, Tuples: 200, Workers: 120, Seed: 11}},
		{name: "joinprefilter", cfg: Config{Workload: WorkloadJoinPreFilter, Tuples: 200, Workers: 120, Seed: 11}},
		{name: "orderby", cfg: Config{Workload: WorkloadOrderBy, Tuples: 200, Workers: 120, Seed: 11}},
		{name: "sort", cfg: Config{Workload: WorkloadSort, Tuples: 80, Workers: 200}},
		{name: "warmstart", cfg: Config{Workload: WorkloadWarmstart, Tuples: 150, Workers: 60, Seed: 4}},
		{name: "streaming", cfg: Config{Workload: WorkloadStreaming, Tuples: 60, Seed: 2}},
		{name: "streaming-cancelafter", cfg: Config{Workload: WorkloadStreaming, Tuples: 120, Seed: 2, CancelAfter: 10},
			extra: func(t *testing.T, v Verification) {
				first := v.Runs[0]
				if first.HITsAfterCancel != 0 || first.Delivered != 10 {
					t.Fatalf("canceled run: %d HITs after cancel, %d rows delivered; want 0 and 10",
						first.HITsAfterCancel, first.Delivered)
				}
				// 120 tuples at 1¢ single-assignment cost ≥ 120¢ uncanceled.
				if first.Spent >= 120 {
					t.Fatalf("cancellation saved nothing: spent %v", first.Spent)
				}
			}},
		{name: "multitenant", cfg: Config{Workload: WorkloadMultiTenant, Queries: 20, Tuples: 130, Workers: 50, Seed: 3}},
		{name: "hybridcrowd", cfg: Config{Workload: WorkloadHybridCrowd, Tuples: 150, Workers: 40, Seed: 7}},
		{name: "inference", cfg: Config{Workload: WorkloadInference, Tuples: 150, Workers: 40, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Workload == WorkloadWarmstart {
				cfg.StorePath = t.TempDir()
			}
			v, err := Verify(cfg)
			if err != nil {
				t.Fatalf("%v\n%s", err, v.Text)
			}
			if !strings.HasPrefix(v.Text, "workload="+string(cfg.Workload)) || !strings.Contains(v.Text, "\nverify: ") {
				t.Fatalf("verification text:\n%s", v.Text)
			}
			if tc.extra != nil {
				tc.extra(t, v)
			}
		})
	}
}

// TestVirtualDiff pins the default rerun rule: every field but the
// wall-clock ones must agree, and a disagreement names its field.
func TestVirtualDiff(t *testing.T) {
	base := Report{Config: Config{Workload: WorkloadFilter, Tuples: 10}, HITs: 4, PerQueryFNV: []uint64{1, 2}}
	wall := base
	wall.Wall, wall.HITsPerSec, wall.Replay, wall.Config.TracePath = time.Second, 99, time.Minute, "trace.jsonl"
	if err := VirtualDiff(base, wall); err != nil {
		t.Fatalf("wall-clock fields must not count: %v", err)
	}
	for field, mutate := range map[string]func(*Report){
		"HITs":         func(r *Report) { r.HITs++ },
		"Assignments":  func(r *Report) { r.Assignments++ },
		"Questions":    func(r *Report) { r.Questions++ },
		"Outcomes":     func(r *Report) { r.Outcomes++ },
		"Errors":       func(r *Report) { r.Errors++ },
		"Makespan":     func(r *Report) { r.Makespan++ },
		"P99":          func(r *Report) { r.P99++ },
		"PerQueryFNV":  func(r *Report) { r.PerQueryFNV = []uint64{1, 3} },
		"Config":       func(r *Report) { r.Config.Tuples++ },
		"InferBaseFNV": func(r *Report) { r.InferBaseFNV++ },
	} {
		other := base
		mutate(&other)
		err := VirtualDiff(base, other)
		if err == nil || !strings.HasPrefix(err.Error(), field+" differs") {
			t.Errorf("mutating %s: err = %v", field, err)
		}
	}
}
