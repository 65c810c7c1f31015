package load

import (
	"strings"
	"testing"
)

func TestRunRejectsUnknownWorkload(t *testing.T) {
	_, err := Run(Config{Workload: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
}

func TestFilterCascadeAccounting(t *testing.T) {
	rep, err := Run(Config{Workload: WorkloadFilter, Tuples: 120, Workers: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	// Stage 1 resolves every tuple; stage 2 only survivors.
	if rep.Outcomes < 120 || rep.Outcomes > 240 {
		t.Fatalf("outcomes = %d, want within [120, 240]", rep.Outcomes)
	}
	if rep.HITs == 0 || rep.Assignments != 3*rep.HITs {
		t.Fatalf("HITs = %d assignments = %d", rep.HITs, rep.Assignments)
	}
	if rep.Spent == 0 {
		t.Fatalf("spent = %v", rep.Spent)
	}
	if rep.P50 > rep.P99 || rep.P99.Nanoseconds() > int64(rep.Makespan) {
		t.Fatalf("latency ordering broken: p50=%v p99=%v makespan=%v", rep.P50, rep.P99, rep.Makespan)
	}
	if rep.Passed == 0 || rep.Passed > rep.Outcomes {
		t.Fatalf("passed = %d of %d", rep.Passed, rep.Outcomes)
	}
}

func TestJoinGridCoversEveryPair(t *testing.T) {
	// 100 sightings → 10 celebrities; every celeb×sighting pair resolves.
	rep, err := Run(Config{Workload: WorkloadJoin, Tuples: 100, Workers: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes != 10*100 {
		t.Fatalf("outcomes = %d, want 1000 pair resolutions", rep.Outcomes)
	}
	if rep.Errors != 0 || rep.HITs == 0 {
		t.Fatalf("errors = %d HITs = %d", rep.Errors, rep.HITs)
	}
}

// TestJoinPreFilterBeatsBaseline is the adaptive-join acceptance bar:
// on the same dataset, seed and (near-perfect) crowd profile, the
// pre-filtered join pays for measurably fewer pairs than the plain grid
// join while producing identical final result rows.
func TestJoinPreFilterBeatsBaseline(t *testing.T) {
	// Seed-pinned: runs are rerun-identical per seed, and at this seed
	// the single-assignment feature filter makes no mistakes, so the
	// result-row fingerprints match exactly. (At an unlucky seed the
	// 1-assignment POSSIBLY filter can drop a true match with ~1%
	// per-question probability — the documented cost of not paying for
	// redundancy on an approximation the join re-checks.)
	cfg := Config{Tuples: 100, Workers: 80, Seed: 2,
		Skill: 0.999, SkillStd: 1e-9, Spam: 1e-12, Abandon: 1e-12, BatchPenalty: 1e-9}

	cfg.Workload = WorkloadJoin
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = WorkloadJoinPreFilter
	pre, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if base.JoinPairs != 10*100 {
		t.Fatalf("baseline pairs = %d, want the full cross product", base.JoinPairs)
	}
	if pre.JoinPairs >= base.JoinPairs/2 {
		t.Fatalf("pre-filtered pairs = %d, want well under baseline %d", pre.JoinPairs, base.JoinPairs)
	}
	if pre.Passed != base.Passed || pre.PassedKeysFNV != base.PassedKeysFNV {
		t.Fatalf("result rows differ: passed %d vs %d, fingerprint %016x vs %016x",
			pre.Passed, base.Passed, pre.PassedKeysFNV, base.PassedKeysFNV)
	}
	if pre.Spent >= base.Spent {
		t.Fatalf("pre-filtered spend %v not under baseline %v", pre.Spent, base.Spent)
	}
	if pre.Errors != 0 || base.Errors != 0 {
		t.Fatalf("errors: pre=%d base=%d", pre.Errors, base.Errors)
	}
}

// TestJoinPreFilterDeclinesWhenUseless drives the decline branch: with
// Batch=1 the unbatched filter costs more than the whole 5×30 grid join
// (35 single-question filter HITs vs 18¢ of grids, at any measured
// selectivity), so DecidePreFilter must refuse and the scenario must
// fall back to joining the full cross product — probe spend sunk,
// every pair paid for.
func TestJoinPreFilterDeclinesWhenUseless(t *testing.T) {
	rep, err := Run(Config{Workload: WorkloadJoinPreFilter, Tuples: 30, Workers: 30, Seed: 2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.JoinPairs != 5*30 {
		t.Fatalf("join pairs = %d, want the full 150-pair cross product after declining", rep.JoinPairs)
	}
	// The probe still ran: outcomes = 150 pairs + probe filter answers.
	if rep.Outcomes <= 150 {
		t.Fatalf("outcomes = %d, want pairs plus probe filter outcomes", rep.Outcomes)
	}
}

// TestWarmstartPaysOnceAnswersTwice is the durable-store acceptance
// bar: run 2 over run 1's store must answer at least half its questions
// from replayed state (here: all of them), pay strictly fewer HITs, and
// produce a byte-identical result fingerprint.
func TestWarmstartPaysOnceAnswersTwice(t *testing.T) {
	cfg := Config{Workload: WorkloadWarmstart, Tuples: 150, Workers: 60, Seed: 4,
		StorePath: t.TempDir()}

	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.HITs == 0 || cold.Errors != 0 {
		t.Fatalf("cold run: HITs=%d errors=%d", cold.HITs, cold.Errors)
	}
	if cold.ReplayedAnswers != 0 {
		t.Fatalf("cold run replayed %d answers from an empty store", cold.ReplayedAnswers)
	}

	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Errors != 0 {
		t.Fatalf("warm run errors = %d", warm.Errors)
	}
	if warm.HITs >= cold.HITs {
		t.Fatalf("warm run paid %d HITs, cold paid %d — store bought nothing", warm.HITs, cold.HITs)
	}
	if warm.ReplayedAnswers == 0 || warm.ReplayedObservations == 0 {
		t.Fatalf("warm run replayed answers=%d observations=%d", warm.ReplayedAnswers, warm.ReplayedObservations)
	}
	if 2*warm.CacheServed < warm.Outcomes {
		t.Fatalf("cache served %d of %d questions, want ≥ half", warm.CacheServed, warm.Outcomes)
	}
	if warm.PassedKeysFNV != cold.PassedKeysFNV || warm.Passed != cold.Passed {
		t.Fatalf("result drift: passed %d vs %d, fingerprint %016x vs %016x",
			warm.Passed, cold.Passed, warm.PassedKeysFNV, cold.PassedKeysFNV)
	}
	// Same-config reruns of the warm run are themselves deterministic in
	// virtual time (the -verify contract).
	warm2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm2.PassedKeysFNV != warm.PassedKeysFNV || warm2.Passed != warm.Passed {
		t.Fatalf("warm reruns disagree: %016x vs %016x", warm2.PassedKeysFNV, warm.PassedKeysFNV)
	}
}

func TestWarmstartNeedsStorePath(t *testing.T) {
	if _, err := Run(Config{Workload: WorkloadWarmstart}); err == nil {
		t.Fatal("warmstart without StorePath must error")
	}
}

func TestOrderByResolvesEveryItem(t *testing.T) {
	rep, err := Run(Config{Workload: WorkloadOrderBy, Tuples: 90, Workers: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes != 90 || rep.Passed != 90 || rep.Errors != 0 {
		t.Fatalf("outcomes=%d passed=%d errors=%d", rep.Outcomes, rep.Passed, rep.Errors)
	}
}

func TestReportStringMentionsHeadlines(t *testing.T) {
	rep, err := Run(Config{Workload: WorkloadFilter, Tuples: 40, Workers: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"HITs/sec", "p50=", "p99=", "$", "workload=filter"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}
