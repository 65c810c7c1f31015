package load

import (
	"time"

	"repro/internal/qlang"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/workload"
)

// sortTasks parses the sort workload's task pair: the rating surface
// and its comparison companion (the `Compare:`/`GroupSize:` syntax the
// engine's ORDER BY path consumes).
func sortTasks() (rateItem, orderItems *qlang.TaskDef) {
	rateItem = mustTask(`
TASK rateItem(Image img)
RETURNS Int:
  TaskType: Rating
  Text: "Rate this item from 1 to 9. %s", img
  Response: Rating(1, 9)
  Compare: orderItems
`)
	orderItems = mustTask(`
TASK orderItems(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order these items from least to most appealing."
  Response: Order
  GroupSize: 5
`)
	return rateItem, orderItems
}

// runSort drives the sort workload: the same dataset ordered four
// ways — rate, all-pairs compare, compare with top-k pushdown, and the
// rate-then-refine hybrid — each in an isolated deterministic phase on
// its own stack (same seed), so per-strategy HIT counts and spend are
// directly comparable. The report carries per-strategy HIT counts and
// order fingerprints, so Check can assert that top-k pays fewer
// comparison HITs than full ordering and that hybrid pays fewer HITs
// than compare-only at an identical final order.
func runSort(cfg Config) (Report, error) {
	rep := Report{Config: cfg}
	rateDef, cmpDef := sortTasks()
	groupSize := rank.GroupSizeFor(rateDef, cmpDef)
	decisions := []rank.Decision{
		{Strategy: rank.StrategyRate, GroupSize: groupSize},
		{Strategy: rank.StrategyCompare, GroupSize: groupSize},
		{Strategy: rank.StrategyCompare, GroupSize: groupSize, TopK: cfg.TopK},
		{Strategy: rank.StrategyHybrid, GroupSize: groupSize},
	}
	ds := workload.RankItems(cfg.Tuples, 9, "rateItem", cfg.Seed)
	oracle := workload.Combine(ds.Oracle, workload.OrderOracle(ds.Tables[0], "orderItems"))
	rows := ds.Tables[0].Snapshot()
	items := make([]rank.Item, len(rows))
	for i, row := range rows {
		items[i] = rank.Item{Key: row.Get("img").Str(), Args: []relation.Value{row.Get("img")}}
	}

	keys := make([][]string, len(decisions)) // item keys in each phase's final order
	var latencies []time.Duration
	phases, err := runPhases(&rep, oracle, func(i int, s *stack) (phase, error) {
		var st rank.Stats
		finished := false
		rank.Run(items, rateDef, cmpDef, decisions[i], rank.Config{Mgr: s.mgr}, func(perm []int, stats rank.Stats) {
			st = stats
			for _, p := range perm {
				keys[i] = append(keys[i], items[p].Key)
			}
			finished = true
		})
		err := s.pump(func() bool { return finished })
		latencies = append(latencies, s.latencies...)
		return s.measure(&counters{outcomes: 1, errors: int64(st.Errors)}), err
	}, make([]variant, len(decisions))...)
	if err != nil {
		return rep, err
	}
	for _, ph := range phases {
		rep.HITs += ph.HITs
		rep.Spent += ph.Spent
		rep.Errors += ph.Errors
		rep.Outcomes += ph.Outcomes
		rep.Makespan = max(rep.Makespan, ph.Makespan)
	}
	rep.Passed = int64(len(keys[1]))
	rep.setLatencies(latencies)

	rep.SortRateHITs = phases[0].HITs
	rep.SortCompareHITs = phases[1].HITs
	rep.SortTopKHITs = phases[2].HITs
	rep.SortHybridHITs = phases[3].HITs
	rep.SortOrderFNV = orderFingerprint(keys[1])
	rep.SortHybridFNV = orderFingerprint(keys[3])
	k := min(cfg.TopK, len(keys[2]))
	rep.SortTopKFNV = orderFingerprint(keys[2][:k])
	rep.SortTopKBaseFNV = orderFingerprint(keys[1][:k])
	return rep, nil
}
