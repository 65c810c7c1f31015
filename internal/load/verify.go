package load

import (
	"fmt"
	"reflect"
)

// Check asserts the contracts one run can show on its own. Workloads
// whose contracts span two runs (warmstart's cold→warm payoff,
// multitenant's sharing saving) are asserted by Verify; the others have
// none and pass.
func Check(rep Report) error {
	switch rep.Config.Workload {
	case WorkloadSort:
		// On the seed-pinned near-perfect crowd: top-k pushdown pays
		// strictly fewer comparison HITs than full ordering, the hybrid
		// pays strictly fewer than compare-only while reproducing its
		// exact final order, and the tournament's top k equals the full
		// ordering's first k.
		switch {
		case rep.SortTopKHITs >= rep.SortCompareHITs:
			return fmt.Errorf("load: top-%d paid %d comparison HITs, full ordering paid %d",
				rep.Config.TopK, rep.SortTopKHITs, rep.SortCompareHITs)
		case rep.SortHybridHITs >= rep.SortCompareHITs:
			return fmt.Errorf("load: hybrid paid %d HITs, compare-only paid %d", rep.SortHybridHITs, rep.SortCompareHITs)
		case rep.SortHybridFNV != rep.SortOrderFNV:
			return fmt.Errorf("load: hybrid order %016x differs from compare order %016x",
				rep.SortHybridFNV, rep.SortOrderFNV)
		case rep.SortTopKFNV != rep.SortTopKBaseFNV:
			return fmt.Errorf("load: top-%d order %016x differs from the full ordering's first %d (%016x)",
				rep.Config.TopK, rep.SortTopKFNV, rep.Config.TopK, rep.SortTopKBaseFNV)
		}
	case WorkloadHybridCrowd:
		// The routed phase must reproduce the sim-only result set
		// exactly, both backends must serve HITs (a hybrid, not a
		// wholesale switch), and routing must spend strictly less than
		// the all-human baseline, with a positive booked saving.
		switch {
		case rep.PassedKeysFNV != rep.HybridSimFNV || rep.HybridSimFNV == 0:
			return fmt.Errorf("load: routed fingerprint %016x differs from sim-only %016x",
				rep.PassedKeysFNV, rep.HybridSimFNV)
		case rep.BackendLLMHITs == 0 || rep.BackendSimHITs == 0:
			return fmt.Errorf("load: not a hybrid: %d sim HITs, %d llm HITs", rep.BackendSimHITs, rep.BackendLLMHITs)
		case rep.Spent >= rep.HybridSimSpent:
			return fmt.Errorf("load: routing saved nothing: spent %v vs sim-only %v", rep.Spent, rep.HybridSimSpent)
		case rep.RoutedSavedCents <= 0:
			return fmt.Errorf("load: router booked no savings (spent %v vs sim-only %v)", rep.Spent, rep.HybridSimSpent)
		}
	case WorkloadInference:
		// The adaptive EM phase must reproduce the majority baseline's
		// result set exactly, buy strictly fewer assignments and spend
		// strictly less, with a positive booked saving.
		switch {
		case rep.PassedKeysFNV != rep.InferBaseFNV || rep.InferBaseFNV == 0:
			return fmt.Errorf("load: adaptive fingerprint %016x differs from majority baseline %016x",
				rep.PassedKeysFNV, rep.InferBaseFNV)
		case rep.Assignments >= rep.InferBaseAssignments:
			return fmt.Errorf("load: adaptive inference saved nothing: %d assignments vs baseline %d",
				rep.Assignments, rep.InferBaseAssignments)
		case rep.Spent >= rep.InferBaseSpent:
			return fmt.Errorf("load: adaptive inference spent %v, baseline %v", rep.Spent, rep.InferBaseSpent)
		case rep.InferSavedCents <= 0:
			return fmt.Errorf("load: no savings booked (spent %v vs baseline %v)", rep.Spent, rep.InferBaseSpent)
		}
	case WorkloadStreaming:
		// The cursor streamed: the first row came strictly before the
		// run's end. With fewer than two delivered rows there is no
		// "earlier" HIT for it to precede.
		if rep.Delivered > 1 && rep.FirstRow >= rep.Makespan {
			return fmt.Errorf("load: first row at %.2f vmin did not precede makespan %.2f vmin",
				rep.FirstRow.Minutes(), rep.Makespan.Minutes())
		}
		// Posting must stop dead at cancellation. The only tolerated
		// exception: a submitter goroutine already past its scope check
		// when Cancel landed may complete one post (immediately expired
		// and refunded). At most two goroutines submit concurrently in
		// this workload (the filter operator and the clock pump), so
		// anything beyond 2 means a submission path is missing the scope
		// check. In practice the measured value is 0.
		const postCancelRaceSlack = 2
		if rep.Config.CancelAfter > 0 && rep.HITsAfterCancel > postCancelRaceSlack {
			return fmt.Errorf("load: %d HITs posted after cancellation (race allowance %d)",
				rep.HITsAfterCancel, postCancelRaceSlack)
		}
	}
	return nil
}

// Verification is what Verify ran: the first run, its untraced rerun
// and, for multitenant with sharing on, the sharing-off baseline. Text
// is how qurk-load -verify prints them, ending in one "verify:" line.
type Verification struct {
	Runs []Report
	Text string
}

// Verify runs cfg, checks it, reruns it with tracing off and checks the
// rerun, then compares the two runs under the workload's rule:
//
//   - by default the whole reports must agree on every virtual-time
//     field (VirtualDiff);
//   - streaming with CancelAfter: only the delivered prefix, because
//     cancellation lands at a racy real-time moment and HIT totals vary;
//   - warmstart: the rerun replays the first run's store, so it must pay
//     fewer HITs (no more, if the store was already warm), answer at
//     least half its questions from the store, and reproduce the result
//     fingerprint;
//   - multitenant: equal per-query results, since HIT packing depends on
//     how the concurrent queries interleaved; with sharing on, a
//     sharing-off baseline must reproduce them with strictly more HITs.
//
// Because the rerun never traces, a traced Config doubles as a tracing
// on/off A/B. On error, Text holds what printed before the failure.
func Verify(cfg Config) (Verification, error) {
	var v Verification
	first, err := Run(cfg)
	if err != nil {
		return v, err
	}
	v.Runs, v.Text = []Report{first}, first.String()
	if err := Check(first); err != nil {
		return v, err
	}
	cfg.TracePath = ""
	again, err := Run(cfg)
	if err == nil {
		v.Runs = append(v.Runs, again)
		err = Check(again)
	}
	if err != nil {
		return v, fmt.Errorf("rerun: %w", err)
	}
	c := first.Config // cfg with defaults filled
	switch {
	case c.Workload == WorkloadWarmstart:
		err = warmPaysLess(first, again)
	case c.Workload == WorkloadMultiTenant:
		if err = sameResults(first, again); err != nil {
			err = fmt.Errorf("RERUN DRIFT: %v", err)
		}
	case c.Workload == WorkloadStreaming && c.CancelAfter > 0:
		if again.PassedKeysFNV != first.PassedKeysFNV || again.Delivered != first.Delivered {
			err = fmt.Errorf("PREFIX DRIFT: %d rows %016x, rerun %d rows %016x",
				first.Delivered, first.PassedKeysFNV, again.Delivered, again.PassedKeysFNV)
		}
	default:
		if err = VirtualDiff(first, again); err != nil {
			err = fmt.Errorf("NONDETERMINISTIC: %v", err)
		}
	}
	if err != nil {
		return v, fmt.Errorf("%w\nrerun:\n%s", err, again)
	}
	if c.Workload == WorkloadMultiTenant && !c.NoShare {
		base := cfg
		base.NoShare = true
		baseline, err := Run(base)
		if err != nil {
			return v, fmt.Errorf("baseline: %w", err)
		}
		v.Runs = append(v.Runs, baseline)
		if err := sameResults(first, baseline); err != nil {
			return v, fmt.Errorf("SHARING CHANGED RESULTS: %v\nbaseline:\n%s", err, baseline)
		}
		if first.HITs >= baseline.HITs {
			return v, fmt.Errorf("sharing saved nothing: %d HITs vs baseline %d", first.HITs, baseline.HITs)
		}
	}
	v.Text = verifyText(v.Runs)
	return v, nil
}

// warmPaysLess asserts the warmstart contract: the rerun over the first
// run's store pays strictly fewer HITs, answers at least half its
// questions from the store and reproduces the result fingerprint. When
// the store was already warm before the first run (the flag used twice
// against one directory), both runs are warm and "strictly fewer"
// relaxes to "no more expensive".
func warmPaysLess(cold, warm Report) error {
	alreadyWarm := cold.ReplayedAnswers > 0
	switch {
	case !alreadyWarm && warm.HITs >= cold.HITs:
		return fmt.Errorf("warm run paid %d HITs, cold paid %d", warm.HITs, cold.HITs)
	case alreadyWarm && warm.HITs > cold.HITs:
		return fmt.Errorf("rerun over a warm store paid %d HITs, first run paid %d", warm.HITs, cold.HITs)
	case 2*warm.CacheServed < warm.Outcomes:
		return fmt.Errorf("warm run answered only %d of %d questions from the store", warm.CacheServed, warm.Outcomes)
	case warm.PassedKeysFNV != cold.PassedKeysFNV || warm.Passed != cold.Passed:
		return fmt.Errorf("WARM RESULT DRIFT: %d passed %016x, cold %d passed %016x",
			warm.Passed, warm.PassedKeysFNV, cold.Passed, cold.PassedKeysFNV)
	}
	return nil
}

// verifyText renders a passed verification: the first run, the rerun
// where the workload's rule compares more than identity, and one
// "verify:" line summing up what was proven.
func verifyText(runs []Report) string {
	first, again := runs[0], runs[1]
	c := first.Config
	text := first.String() + again.String()
	var line string
	switch c.Workload {
	case WorkloadWarmstart:
		line = fmt.Sprintf("verify: warm run paid %d fewer HITs at an identical result fingerprint", first.HITs-again.HITs)
		if first.ReplayedAnswers > 0 {
			line = "verify: store already warm — both runs served from it at an identical result fingerprint"
		}
	case WorkloadSort:
		line = fmt.Sprintf("verify: rerun-identical; top-%d paid %d of compare's %d HITs; hybrid paid %d at an identical final order",
			c.TopK, first.SortTopKHITs, first.SortCompareHITs, first.SortHybridHITs)
	case WorkloadHybridCrowd:
		line = fmt.Sprintf("verify: rerun-identical; routing served %d of %d HITs from the llm crowd and spent %v less than sim-only at an identical result fingerprint",
			first.BackendLLMHITs, first.HITs, first.HybridSimSpent-first.Spent)
	case WorkloadInference:
		line = fmt.Sprintf("verify: rerun-identical; adaptive inference bought %d assignments vs %d fixed-redundancy (%v cheaper) at an identical result fingerprint",
			first.Assignments, first.InferBaseAssignments, first.InferBaseSpent-first.Spent)
	case WorkloadStreaming:
		line = fmt.Sprintf("verify: completed prefix rerun-identical (%d rows, fingerprint %016x)", first.Delivered, first.PassedKeysFNV)
	case WorkloadMultiTenant:
		text = first.String()
		line = fmt.Sprintf("verify: %d queries rerun-identical (combined fingerprint %016x)", c.Queries, first.PassedKeysFNV)
		if len(runs) > 2 {
			base := runs[2]
			line = fmt.Sprintf("verify: %d queries rerun-identical; sharing posted %d HITs vs %d unshared (%d saved, %v cheaper)",
				c.Queries, first.HITs, base.HITs, base.HITs-first.HITs, base.Spent-first.Spent)
		}
	default:
		text = first.String()
		line = "verify: identical virtual-time metrics across reruns"
	}
	return text + line + "\n"
}

// sameResults asserts two multitenant runs produced the same results:
// every query's passed-keys fingerprint and the combined fingerprint.
func sameResults(a, b Report) error {
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

// VirtualDiff compares two runs on every Report field except the
// wall-clock ones (Wall, HITsPerSec, Replay) and Config.TracePath. It
// returns nil when they agree, else an error naming the first field
// that differs.
func VirtualDiff(a, b Report) error {
	va, vb := reflect.ValueOf(a.virtual()), reflect.ValueOf(b.virtual())
	for i := 0; i < va.NumField(); i++ {
		x, y := va.Field(i).Interface(), vb.Field(i).Interface()
		if !reflect.DeepEqual(x, y) {
			return fmt.Errorf("%s differs: %v vs %v", va.Type().Field(i).Name, x, y)
		}
	}
	return nil
}

// virtual zeroes the report's wall-clock fields.
func (r Report) virtual() Report {
	r.Wall, r.HITsPerSec, r.Replay, r.Config.TracePath = 0, 0, 0, ""
	return r
}
