package repro

import (
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/hit"
	"repro/internal/load"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Each benchmark regenerates one experiment table (EXPERIMENTS.md) and
// reports its headline figures as custom metrics, so `go test -bench=.`
// reproduces the paper's evaluation artifacts end to end. Simulated
// money is reported as cents/op and simulated wall time as vmin/op
// (virtual minutes) — wall-clock ns/op only measures the simulator.

func metric(b *testing.B, tab experiments.Table, row, col int, name string) {
	b.Helper()
	cell := tab.Rows[row][col]
	cell = strings.TrimPrefix(cell, "$")
	if v, err := strconv.ParseFloat(cell, 64); err == nil {
		b.ReportMetric(v, name)
	}
}

// BenchmarkE1Pipeline drives both demo queries through every component
// of Figure 1.
func BenchmarkE1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E1Pipeline(int64(i + 1))
		if len(tab.Rows) != 8 {
			b.Fatalf("components = %d", len(tab.Rows))
		}
	}
}

// BenchmarkE2Cache re-runs Query 1 three times; runs 2-3 must be free.
func BenchmarkE2Cache(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E2Cache(8, int64(i+1))
	}
	metric(b, tab, 0, 4, "run1_dollars")
	metric(b, tab, 1, 4, "run2_dollars")
}

// BenchmarkE3JoinInterfaces sweeps the Figure 3 join interfaces.
func BenchmarkE3JoinInterfaces(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E3JoinInterfaces(8, 16, int64(i+1))
	}
	metric(b, tab, 0, 1, "pairwise_HITs")
	metric(b, tab, 3, 1, "grid5x5_HITs")
	metric(b, tab, 3, 7, "grid5x5_F1")
}

// BenchmarkE4TaskModel measures classifier substitution over batches.
func BenchmarkE4TaskModel(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E4TaskModel(4, 30, int64(i+1))
	}
	metric(b, tab, 0, 1, "batch1_human")
	metric(b, tab, 3, 2, "batch4_model")
}

// BenchmarkE5PreFilter measures cross-product reduction via a cheap
// feature filter.
func BenchmarkE5PreFilter(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E5PreFilter(6, 14, int64(i+1))
	}
	metric(b, tab, 0, 2, "joinQs_plain")
	metric(b, tab, 1, 2, "joinQs_filtered")
	metric(b, tab, 2, 3, "pairwise_plain_dollars")
	metric(b, tab, 3, 3, "pairwise_filtered_dollars")
}

// BenchmarkE6Redundancy sweeps assignments per HIT.
func BenchmarkE6Redundancy(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E6Redundancy(40, int64(i+1))
	}
	metric(b, tab, 0, 3, "acc_1asg")
	metric(b, tab, 2, 3, "acc_5asg")
}

// BenchmarkE7Adaptive compares static and adaptive filter orderings.
func BenchmarkE7Adaptive(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E7Adaptive(40, int64(i+1))
	}
	metric(b, tab, 0, 3, "worstQs")
	metric(b, tab, 1, 3, "bestQs")
	metric(b, tab, 2, 3, "adaptiveQs")
}

// BenchmarkE8Batching sweeps tuples-per-HIT.
func BenchmarkE8Batching(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E8Batching(40, int64(i+1))
	}
	metric(b, tab, 0, 1, "HITs_batch1")
	metric(b, tab, 3, 1, "HITs_batch10")
}

// BenchmarkE9Sort compares rating-based and comparison-based human
// sorting.
func BenchmarkE9Sort(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E9Sort(12, int64(i+1))
	}
	metric(b, tab, 0, 1, "ratingQs")
	metric(b, tab, 1, 1, "compareQs")
	metric(b, tab, 0, 3, "ratingTau")
}

// BenchmarkE10Async compares the async executor against a blocking
// iterator on virtual makespan.
func BenchmarkE10Async(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E10Async(16, int64(i+1))
	}
	metric(b, tab, 0, 2, "async_vmin")
	metric(b, tab, 1, 2, "blocking_vmin")
}

// benchPool is a contention-free worker pool: every claim is answered by
// an anonymous worker after one virtual second, so the benchmark below
// measures marketplace overhead rather than crowd simulation. The claim
// is allocation-free (shared answers, read-only) for the same reason.
type benchPool struct{}

var benchAnswers = hit.Answers{WorkerID: "bench-worker",
	Values: []relation.Value{relation.NewBool(true)}}

func benchAnswer() (hit.Answers, error) { return benchAnswers, nil }

func (benchPool) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	return mturk.Claim{WorkerID: "bench-worker", Delay: time.Second, Answer: benchAnswer}, true
}

// BenchmarkMarketplaceThroughput hammers Post/dispatch/complete from all
// cores at once — the paper's thousands-of-async-HITs regime — and
// reports end-to-end completed HITs per wall-clock second.
func BenchmarkMarketplaceThroughput(b *testing.B) {
	clock := mturk.NewClock()
	market := mturk.NewMarketplace(clock, benchPool{})
	// Steady-state regime: completed HITs are disposed (the production
	// configuration), so the benchmark measures marketplace throughput,
	// not GC over an ever-growing history.
	market.SetAutoDispose(true, nil)
	var stop atomic.Bool
	pumpDone := make(chan struct{})
	go func() {
		clock.Run(func() bool { return stop.Load() })
		close(pumpDone)
	}()
	defer func() {
		stop.Store(true)
		clock.Close()
		<-pumpDone
	}()

	// Bound in-flight HITs so the benchmark measures steady-state
	// marketplace throughput rather than GC over an unbounded backlog.
	const maxInflight = 4096
	var posted, completed atomic.Int64
	items := []hit.Item{{Key: "k"}} // HITs never mutate Items; share one
	onDone := func(mturk.AssignmentResult) { completed.Add(1) }
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for posted.Load()-completed.Load() > maxInflight {
				runtime.Gosched()
			}
			h := &hit.HIT{
				ID:          market.NewHITID(),
				Task:        "bench",
				Title:       "bench",
				Question:    "q",
				Response:    qlang.Response{Kind: qlang.ResponseYesNo},
				RewardCents: 1,
				Assignments: 1,
				Items:       items,
			}
			posted.Add(1)
			if err := market.Post(h, onDone); err != nil {
				b.Error(err)
				return
			}
		}
	})
	for completed.Load() < posted.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	b.ReportMetric(float64(completed.Load())/b.Elapsed().Seconds(), "HITs/sec")
}

// BenchmarkLoadHarness runs a small crowd-scale load scenario per
// iteration and reports its headline metrics (see internal/load).
func BenchmarkLoadHarness(b *testing.B) {
	var rep load.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = load.Run(load.Config{
			Workload: load.WorkloadFilter,
			Tuples:   400,
			Workers:  200,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.HITsPerSec, "HITs/sec")
	b.ReportMetric(rep.P99.Minutes(), "p99_vmin")
	b.ReportMetric(float64(rep.Spent)/100, "dollars/query")
}

// BenchmarkE11SpamDefense measures the reputation blocklist extension.
func BenchmarkE11SpamDefense(b *testing.B) {
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E11SpamDefense(40, int64(i+1))
	}
	metric(b, tab, 0, 3, "acc_no_defense")
	metric(b, tab, 1, 3, "acc_blocklist")
}
