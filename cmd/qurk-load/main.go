// Command qurk-load drives the deterministic crowd-scale load harness
// (internal/load) against the sharded marketplace and prints throughput,
// virtual-time latency percentiles and cost.
//
//	qurk-load                                  # 1000-tuple filter cascade
//	qurk-load -workload join -tuples 20000     # 5×5 join grids at scale
//	qurk-load -workload joinprefilter          # cost-based pre-filtered join
//	qurk-load -workload orderby -workers 2000  # rating sort, big crowd
//	qurk-load -verify                          # run twice, assert identical
//	qurk-load -workload warmstart -store DIR -verify
//	    # cold run, then a warm run over the same store: asserts run 2
//	    # pays fewer HITs, answers ≥ half its questions from replayed
//	    # state, and reproduces run 1's result fingerprint exactly
//	qurk-load -workload streaming -tuples 200 -cancelafter 20 -verify
//	    # context-first query API end to end: asserts the Rows cursor
//	    # delivered its first tuple before the final HIT completed, that
//	    # posting stopped dead at ctx cancellation (0 HITs in practice;
//	    # at most 2 already-in-flight posts tolerated, expired + refunded),
//	    # and that the completed prefix's fingerprint is rerun-identical
//	qurk-load -workload hybridcrowd -verify
//	    # worker-backend routing end to end: the same filter cascade runs
//	    # sim-only and then through a backend router that serves the first
//	    # stage from a deterministic LLM crowd at half the human reward:
//	    # asserts both phases produce identical result fingerprints, that
//	    # both backends actually served HITs, that the routed run spent
//	    # strictly less, and that reruns are byte-identical
//	qurk-load -workload multitenant -queries 150 -verify
//	    # hundreds of concurrent streaming queries through ONE engine with
//	    # cross-query HIT sharing and a posting admission gate: asserts
//	    # per-query result fingerprints are rerun-identical, that a
//	    # sharing-off baseline reproduces the same fingerprints with
//	    # strictly MORE HITs, and that per-query sunk costs sum exactly
//	    # to the account's spend (audited inside every run)
//	qurk-load -workload inference -verify
//	    # joint worker-quality/answer inference end to end: the same
//	    # filter cascade runs under fixed-redundancy majority voting and
//	    # then under EM with adaptive redundancy (post at the floor,
//	    # extend while the posterior is unsure): asserts the adaptive
//	    # phase buys strictly fewer assignments at an identical result
//	    # fingerprint, and that reruns are byte-identical
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
	rep, err := load.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qurk-load:", err)
		os.Exit(1)
	}
	fmt.Print(rep)

	if cfg.Workload == load.WorkloadStreaming {
		if err := checkStreaming(rep); err != nil {
			fmt.Fprintln(os.Stderr, "qurk-load:", err)
			os.Exit(1)
		}
	}
	if cfg.Workload == load.WorkloadSort {
		if err := checkSort(rep); err != nil {
			fmt.Fprintln(os.Stderr, "qurk-load:", err)
			os.Exit(1)
		}
	}
	if cfg.Workload == load.WorkloadHybridCrowd {
		if err := checkHybrid(rep); err != nil {
			fmt.Fprintln(os.Stderr, "qurk-load:", err)
			os.Exit(1)
		}
	}
	if cfg.Workload == load.WorkloadInference {
		if err := checkInference(rep); err != nil {
			fmt.Fprintln(os.Stderr, "qurk-load:", err)
			os.Exit(1)
		}
	}

	if *verify {
		// The rerun never traces: when -trace was set, the fingerprint
		// comparisons below double as a tracing on/off A/B.
		cfg.TracePath = ""
		again, err := load.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qurk-load: rerun:", err)
			os.Exit(1)
		}
		if cfg.Workload == load.WorkloadWarmstart {
			// With a store, the second run is supposed to differ: it must
			// be cheaper, warm-started, and byte-identical in results.
			// When the store was already warm before the first run (the
			// flag used twice against one directory), both runs are warm
			// and "strictly fewer" relaxes to "no more expensive".
			alreadyWarm := rep.ReplayedAnswers > 0
			switch {
			case !alreadyWarm && again.HITs >= rep.HITs:
				fmt.Fprintf(os.Stderr, "qurk-load: warm run paid %d HITs, cold paid %d\n", again.HITs, rep.HITs)
				os.Exit(1)
			case alreadyWarm && again.HITs > rep.HITs:
				fmt.Fprintf(os.Stderr, "qurk-load: rerun over a warm store paid %d HITs, first run paid %d\n", again.HITs, rep.HITs)
				os.Exit(1)
			case 2*again.CacheServed < again.Outcomes:
				fmt.Fprintf(os.Stderr, "qurk-load: warm run answered only %d of %d questions from the store\n",
					again.CacheServed, again.Outcomes)
				os.Exit(1)
			case again.PassedKeysFNV != rep.PassedKeysFNV || again.Passed != rep.Passed:
				fmt.Fprintf(os.Stderr, "qurk-load: WARM RESULT DRIFT\ncold:\n%s\nwarm:\n%s", rep, again)
				os.Exit(1)
			}
			fmt.Print(again)
			if alreadyWarm {
				fmt.Println("verify: store already warm — both runs served from it at an identical result fingerprint")
			} else {
				fmt.Printf("verify: warm run paid %d fewer HITs at an identical result fingerprint\n", rep.HITs-again.HITs)
			}
			return
		}
		if cfg.Workload == load.WorkloadSort {
			if err := checkSort(again); err != nil {
				fmt.Fprintln(os.Stderr, "qurk-load: rerun:", err)
				os.Exit(1)
			}
			if rep.HITs != again.HITs || rep.Spent != again.Spent || rep.Makespan != again.Makespan ||
				rep.SortRateHITs != again.SortRateHITs || rep.SortCompareHITs != again.SortCompareHITs ||
				rep.SortTopKHITs != again.SortTopKHITs || rep.SortHybridHITs != again.SortHybridHITs ||
				rep.SortOrderFNV != again.SortOrderFNV || rep.SortHybridFNV != again.SortHybridFNV ||
				rep.SortTopKFNV != again.SortTopKFNV {
				fmt.Fprintf(os.Stderr, "qurk-load: NONDETERMINISTIC\nfirst:\n%s\nsecond:\n%s", rep, again)
				os.Exit(1)
			}
			fmt.Print(again)
			fmt.Printf("verify: rerun-identical; top-%d paid %d of compare's %d HITs; hybrid paid %d at an identical final order\n",
				rep.Config.TopK, rep.SortTopKHITs, rep.SortCompareHITs, rep.SortHybridHITs)
			return
		}
		if cfg.Workload == load.WorkloadHybridCrowd {
			if err := checkHybrid(again); err != nil {
				fmt.Fprintln(os.Stderr, "qurk-load: rerun:", err)
				os.Exit(1)
			}
			if rep.HITs != again.HITs || rep.Spent != again.Spent || rep.Makespan != again.Makespan ||
				rep.PassedKeysFNV != again.PassedKeysFNV ||
				rep.HybridSimHITs != again.HybridSimHITs || rep.HybridSimSpent != again.HybridSimSpent ||
				rep.HybridSimFNV != again.HybridSimFNV ||
				rep.BackendSimHITs != again.BackendSimHITs || rep.BackendLLMHITs != again.BackendLLMHITs ||
				rep.RoutedSavedCents != again.RoutedSavedCents {
				fmt.Fprintf(os.Stderr, "qurk-load: NONDETERMINISTIC\nfirst:\n%s\nsecond:\n%s", rep, again)
				os.Exit(1)
			}
			fmt.Print(again)
			fmt.Printf("verify: rerun-identical; routing served %d of %d HITs from the llm crowd and spent %v less than sim-only at an identical result fingerprint\n",
				rep.BackendLLMHITs, rep.HITs, rep.HybridSimSpent-rep.Spent)
			return
		}
		if cfg.Workload == load.WorkloadInference {
			if err := checkInference(again); err != nil {
				fmt.Fprintln(os.Stderr, "qurk-load: rerun:", err)
				os.Exit(1)
			}
			if rep.HITs != again.HITs || rep.Assignments != again.Assignments ||
				rep.Spent != again.Spent || rep.Makespan != again.Makespan ||
				rep.PassedKeysFNV != again.PassedKeysFNV || rep.InferBaseFNV != again.InferBaseFNV ||
				rep.InferBaseHITs != again.InferBaseHITs || rep.InferBaseAssignments != again.InferBaseAssignments ||
				rep.InferBaseSpent != again.InferBaseSpent || rep.InferExtensions != again.InferExtensions ||
				rep.InferSavedCents != again.InferSavedCents {
				fmt.Fprintf(os.Stderr, "qurk-load: NONDETERMINISTIC\nfirst:\n%s\nsecond:\n%s", rep, again)
				os.Exit(1)
			}
			fmt.Print(again)
			fmt.Printf("verify: rerun-identical; adaptive inference bought %d assignments vs %d fixed-redundancy (%v cheaper) at an identical result fingerprint\n",
				rep.Assignments, rep.InferBaseAssignments, rep.InferBaseSpent-rep.Spent)
			return
		}
		if cfg.Workload == load.WorkloadStreaming {
			// Cancellation lands at a racy real-time moment, so the HIT
			// totals legitimately vary; the completed prefix — the rows
			// the caller actually received before cancel — must not.
			if err := checkStreaming(again); err != nil {
				fmt.Fprintln(os.Stderr, "qurk-load: rerun:", err)
				os.Exit(1)
			}
			if rep.PassedKeysFNV != again.PassedKeysFNV || rep.Delivered != again.Delivered {
				fmt.Fprintf(os.Stderr, "qurk-load: PREFIX DRIFT\nfirst:\n%s\nsecond:\n%s", rep, again)
				os.Exit(1)
			}
			fmt.Print(again)
			fmt.Printf("verify: completed prefix rerun-identical (%d rows, fingerprint %016x)\n",
				rep.Delivered, rep.PassedKeysFNV)
			return
		}
		if cfg.Workload == load.WorkloadMultiTenant {
			// Packing (HIT counts, latencies) depends on how the racy
			// interleaving pooled partial batches; the results and the
			// money must not. The rerun pins the fingerprints; a
			// sharing-off baseline then pins the saving. (Each run also
			// self-audits that per-query sunk costs sum to the account.)
			if err := sameTenantResults(rep, again); err != nil {
				fmt.Fprintf(os.Stderr, "qurk-load: RERUN DRIFT: %v\nfirst:\n%s\nsecond:\n%s", err, rep, again)
				os.Exit(1)
			}
			if !cfg.NoShare {
				base := cfg
				base.NoShare = true
				baseline, err := load.Run(base)
				if err != nil {
					fmt.Fprintln(os.Stderr, "qurk-load: baseline:", err)
					os.Exit(1)
				}
				if err := sameTenantResults(rep, baseline); err != nil {
					fmt.Fprintf(os.Stderr, "qurk-load: SHARING CHANGED RESULTS: %v\nshared:\n%s\nbaseline:\n%s", err, rep, baseline)
					os.Exit(1)
				}
				if rep.HITs >= baseline.HITs {
					fmt.Fprintf(os.Stderr, "qurk-load: sharing saved nothing: %d HITs vs baseline %d\n", rep.HITs, baseline.HITs)
					os.Exit(1)
				}
				fmt.Printf("verify: %d queries rerun-identical; sharing posted %d HITs vs %d unshared (%d saved, %v cheaper)\n",
					rep.Config.Queries, rep.HITs, baseline.HITs, baseline.HITs-rep.HITs, baseline.Spent-rep.Spent)
				return
			}
			fmt.Printf("verify: %d queries rerun-identical (combined fingerprint %016x)\n", rep.Config.Queries, rep.PassedKeysFNV)
			return
		}
		if rep.HITs != again.HITs || rep.Spent != again.Spent || rep.Makespan != again.Makespan ||
			rep.P50 != again.P50 || rep.P99 != again.P99 || rep.Passed != again.Passed ||
			rep.JoinPairs != again.JoinPairs || rep.PassedKeysFNV != again.PassedKeysFNV {
			fmt.Fprintf(os.Stderr, "qurk-load: NONDETERMINISTIC\nfirst:\n%s\nsecond:\n%s", rep, again)
			os.Exit(1)
		}
		fmt.Println("verify: identical virtual-time metrics across reruns")
	}
}

// sameTenantResults asserts two multitenant runs produced the same
// results: every query's passed-keys fingerprint and the combined
// fingerprint must match (HIT packing may differ — results may not).
func sameTenantResults(a, b load.Report) error {
	if len(a.PerQueryFNV) != len(b.PerQueryFNV) {
		return fmt.Errorf("query counts differ: %d vs %d", len(a.PerQueryFNV), len(b.PerQueryFNV))
	}
	for i := range a.PerQueryFNV {
		if a.PerQueryFNV[i] != b.PerQueryFNV[i] {
			return fmt.Errorf("query %d fingerprint %016x vs %016x", i, a.PerQueryFNV[i], b.PerQueryFNV[i])
		}
	}
	if a.PassedKeysFNV != b.PassedKeysFNV || a.Passed != b.Passed {
		return fmt.Errorf("combined fingerprint %016x (%d passed) vs %016x (%d passed)",
			a.PassedKeysFNV, a.Passed, b.PassedKeysFNV, b.Passed)
	}
	return nil
}

// checkSort asserts the sort workload's contracts on its seed-pinned
// near-perfect crowd: top-k pushdown pays strictly fewer comparison
// HITs than full ordering, the hybrid pays strictly fewer than
// compare-only while reproducing its exact final order, and the
// tournament's top k equals the full ordering's first k.
func checkSort(rep load.Report) error {
	if rep.SortTopKHITs >= rep.SortCompareHITs {
		return fmt.Errorf("top-%d paid %d comparison HITs, full ordering paid %d",
			rep.Config.TopK, rep.SortTopKHITs, rep.SortCompareHITs)
	}
	if rep.SortHybridHITs >= rep.SortCompareHITs {
		return fmt.Errorf("hybrid paid %d HITs, compare-only paid %d", rep.SortHybridHITs, rep.SortCompareHITs)
	}
	if rep.SortHybridFNV != rep.SortOrderFNV {
		return fmt.Errorf("hybrid order %016x differs from compare order %016x",
			rep.SortHybridFNV, rep.SortOrderFNV)
	}
	if rep.SortTopKFNV != rep.SortTopKBaseFNV {
		return fmt.Errorf("top-%d order %016x differs from the full ordering's first %d (%016x)",
			rep.Config.TopK, rep.SortTopKFNV, rep.Config.TopK, rep.SortTopKBaseFNV)
	}
	return nil
}

// checkHybrid asserts the hybridcrowd workload's contracts on its
// seed-pinned perfect crowd and ground-truth model: the routed phase
// must reproduce the sim-only phase's result set exactly, both backends
// must actually serve HITs (it is a hybrid, not a wholesale switch), and
// routing must spend strictly less than the all-human baseline, with a
// positive booked saving.
func checkHybrid(rep load.Report) error {
	if rep.PassedKeysFNV != rep.HybridSimFNV || rep.HybridSimFNV == 0 {
		return fmt.Errorf("routed fingerprint %016x differs from sim-only %016x",
			rep.PassedKeysFNV, rep.HybridSimFNV)
	}
	if rep.BackendLLMHITs == 0 || rep.BackendSimHITs == 0 {
		return fmt.Errorf("not a hybrid: %d sim HITs, %d llm HITs", rep.BackendSimHITs, rep.BackendLLMHITs)
	}
	if rep.Spent >= rep.HybridSimSpent {
		return fmt.Errorf("routing saved nothing: spent %v vs sim-only %v", rep.Spent, rep.HybridSimSpent)
	}
	if rep.RoutedSavedCents <= 0 {
		return fmt.Errorf("router booked no savings (spent %v vs sim-only %v)", rep.Spent, rep.HybridSimSpent)
	}
	return nil
}

// checkInference asserts the inference workload's contracts on its
// seed-pinned perfect crowd: the adaptive EM phase must reproduce the
// majority baseline's result set exactly, buy strictly fewer assignments
// and spend strictly less, with a positive booked saving.
func checkInference(rep load.Report) error {
	if rep.PassedKeysFNV != rep.InferBaseFNV || rep.InferBaseFNV == 0 {
		return fmt.Errorf("adaptive fingerprint %016x differs from majority baseline %016x",
			rep.PassedKeysFNV, rep.InferBaseFNV)
	}
	if rep.Assignments >= rep.InferBaseAssignments {
		return fmt.Errorf("adaptive inference saved nothing: %d assignments vs baseline %d",
			rep.Assignments, rep.InferBaseAssignments)
	}
	if rep.Spent >= rep.InferBaseSpent {
		return fmt.Errorf("adaptive inference spent %v, baseline %v", rep.Spent, rep.InferBaseSpent)
	}
	if rep.InferSavedCents <= 0 {
		return fmt.Errorf("no savings booked (spent %v vs baseline %v)", rep.Spent, rep.InferBaseSpent)
	}
	return nil
}

// checkStreaming asserts the streaming workload's two contracts: the
// cursor streamed (first row strictly before the run's end) and, when
// cancellation was requested, posting stopped dead afterwards.
func checkStreaming(rep load.Report) error {
	// With fewer than two delivered rows there is no "earlier" HIT for
	// the first row to precede — a one-row run ends when it starts.
	if rep.Delivered > 1 && rep.FirstRow >= rep.Makespan {
		return fmt.Errorf("first row at %.2f vmin did not precede makespan %.2f vmin",
			rep.FirstRow.Minutes(), rep.Makespan.Minutes())
	}
	// Posting must stop dead at cancellation. The only tolerated
	// exception: a submitter goroutine already past its scope check when
	// Cancel landed may complete one post (immediately expired and
	// refunded via registerHIT → cancelInflightHIT). At most two
	// goroutines submit concurrently in this workload (the filter
	// operator and the clock pump), so anything beyond 2 means a
	// submission path is missing the scope check. In practice the
	// measured value is 0 — the report prints it.
	const postCancelRaceSlack = 2
	if rep.Config.CancelAfter > 0 && rep.HITsAfterCancel > postCancelRaceSlack {
		return fmt.Errorf("%d HITs posted after cancellation (race allowance %d)",
			rep.HITsAfterCancel, postCancelRaceSlack)
	}
	return nil
}
