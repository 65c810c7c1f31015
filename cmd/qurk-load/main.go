// Command qurk-load drives the deterministic crowd-scale load harness
// (internal/load) against the sharded marketplace and prints throughput,
// virtual-time latency percentiles and cost. It is flag parsing around
// load.Run, load.Check and load.Verify; every workload's contract lives
// in internal/load.
//
//	qurk-load                                  # 1000-tuple filter cascade
//	qurk-load -workload join -tuples 20000     # 5×5 join grids at scale
//	qurk-load -workload joinprefilter          # cost-based pre-filtered join
//	qurk-load -workload orderby -workers 2000  # rating sort, big crowd
//	qurk-load -workload sort                   # four ranking strategies
//	qurk-load -verify                          # run twice, assert identical
//	qurk-load -workload warmstart -store DIR -verify
//	qurk-load -workload streaming -tuples 200 -cancelafter 20 -verify
//	qurk-load -workload hybridcrowd -verify
//	qurk-load -workload multitenant -queries 150 -verify
//	qurk-load -workload inference -verify
//
// A plain run prints the report and fails if load.Check rejects it
// (sort, hybridcrowd, inference and streaming assert their in-run
// contracts: cheaper strategies, routing or adaptive redundancy at an
// identical result fingerprint; first row before the last HIT; posting
// stopped at cancellation). -verify runs load.Verify: the run, its
// check, an untraced rerun and the workload's rerun rule — every
// virtual-time field identical by default; the delivered prefix for
// streaming with -cancelafter; a cheaper warm run at an identical
// fingerprint for warmstart; identical per-query results plus a
// sharing-off baseline with strictly more HITs for multitenant.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/load"
)

func main() {
	workload := flag.String("workload", "filter", "scenario: filter | join | joinprefilter | orderby | sort | warmstart | streaming | multitenant | hybridcrowd | inference")
	tuples := flag.Int("tuples", 1000, "input cardinality")
	workers := flag.Int("workers", 500, "simulated crowd size")
	shards := flag.Int("shards", 0, "worker-pool claim shards (0 = one per 64 workers)")
	batch := flag.Int("batch", 5, "tuples per HIT")
	assignments := flag.Int("assignments", 0, "redundancy per HIT (0 = workload default: 3, sort: 5)")
	price := flag.Int64("price", 1, "reward cents per HIT")
	seed := flag.Int64("seed", 1, "crowd and workload random seed")
	skill := flag.Float64("skill", 0, "mean worker skill (0 = crowd default 0.85)")
	skillStd := flag.Float64("skillstd", 0, "worker skill spread (0 = crowd default 0.08)")
	spam := flag.Float64("spam", 0, "spammer fraction (0 = crowd default 0.05)")
	abandon := flag.Float64("abandon", 0, "abandonment rate (0 = crowd default 0.02)")
	batchPenalty := flag.Float64("batchpenalty", 0, "per-question accuracy decay (0 = crowd default 0.015)")
	storePath := flag.String("store", "", "durable knowledge store directory (required by -workload warmstart)")
	topk := flag.Int("topk", 0, "sort: LIMIT pushed into the top-k comparison phase (0 = default 3; clamped below the group size of 5)")
	cancelAfter := flag.Int("cancelafter", 0, "streaming: cancel the query context after N delivered rows (0 = run to completion)")
	streamWindow := flag.Int("streamwindow", 0, "streaming: concurrent in-flight filter cascades (0 = default 8)")
	queries := flag.Int("queries", 0, "multitenant: concurrent streaming queries (0 = default 150)")
	noShare := flag.Bool("noshare", false, "multitenant: turn cross-query HIT sharing off (baseline)")
	maxInflight := flag.Int("maxinflight", 0, "multitenant: admission gate on concurrently posted HITs (0 = default 32)")
	noPlanCache := flag.Bool("noplancache", false, "disable the normalized-SQL plan cache (A/B baseline; -verify fingerprints must match either way)")
	minAssignments := flag.Int("minassignments", 0, "inference: adaptive posting floor (0 = default 2); the EM phase extends toward -assignments while unsure")
	verify := flag.Bool("verify", false, "run twice and fail unless virtual-time metrics match (warmstart: assert run 2 is cheaper at an identical fingerprint)")
	trace := flag.String("trace", "", "write the run's span trees (batches, HITs, assignments) to this path as JSONL; with -verify the rerun drops tracing, so matching fingerprints prove tracing is inert")
	flag.Parse()

	cfg := load.Config{
		Workload:       load.Workload(*workload),
		Tuples:         *tuples,
		Workers:        *workers,
		Shards:         *shards,
		Batch:          *batch,
		Assignments:    *assignments,
		PriceCents:     *price,
		Seed:           *seed,
		Skill:          *skill,
		SkillStd:       *skillStd,
		Spam:           *spam,
		Abandon:        *abandon,
		BatchPenalty:   *batchPenalty,
		StorePath:      *storePath,
		TopK:           *topk,
		CancelAfter:    *cancelAfter,
		StreamWindow:   *streamWindow,
		Queries:        *queries,
		NoShare:        *noShare,
		MaxInflight:    *maxInflight,
		NoPlanCache:    *noPlanCache,
		MinAssignments: *minAssignments,
		TracePath:      *trace,
	}
	if *verify {
		v, err := load.Verify(cfg)
		fmt.Print(v.Text)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qurk-load:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := load.Run(cfg)
	if err == nil {
		fmt.Print(rep)
		err = load.Check(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qurk-load:", err)
		os.Exit(1)
	}
}
