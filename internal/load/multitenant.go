package load

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/relation"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// multitenantTask is the one filter task every tenant query applies;
// cross-query co-batching only ever merges items of the same task.
const multitenantTask = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
`

// tenantTable names query i's private input relation.
func tenantTable(i int) string { return fmt.Sprintf("tenant%03d", i) }

// tenantTables builds one disjoint photo table per query (keys never
// collide across tenants, so neither the Task Cache nor a shared HIT
// can conflate two queries' items) plus a single oracle that reads the
// ground truth back out of the key itself.
func tenantTables(queries, perQuery int, seed int64) workload.Dataset {
	rng := rand.New(rand.NewSource(seed))
	schema := relation.MustSchema(relation.Column{Name: "img", Kind: relation.KindImage})
	tables := make([]*relation.Table, queries)
	for q := range tables {
		tab := relation.NewTable(tenantTable(q), schema)
		for j := 0; j < perQuery; j++ {
			subject := "toaster"
			if rng.Float64() < 0.5 {
				subject = "feline"
			}
			_ = tab.InsertValues(relation.NewImage(fmt.Sprintf("t%03d-photo%03d-%s.png", q, j, subject)))
		}
		tables[q] = tab
	}
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		if len(args) == 0 {
			return relation.Null
		}
		return relation.NewBool(strings.Contains(args[0].Str(), "feline"))
	})
	return workload.Dataset{Tables: tables, Oracle: oracle}
}

// runMultiTenant drives Config.Queries concurrent streaming queries
// through ONE engine: every query filters its own disjoint table with
// the same task, opting into cross-query HIT sharing (unless NoShare)
// behind a MaxInflight admission gate.
//
// Determinism posture: the default crowd is exactly perfect (Skill 1.0
// with vanishing spread/spam/abandonment), so every answer equals
// ground truth and each query's passed-keys fingerprint is a pure
// function of its table — identical across reruns, with sharing on or
// off, whatever order the scheduler interleaves the queries in. HIT
// counts and latencies remain timing-dependent; the fingerprints and
// the ledger are what the -verify harness pins down.
//
// The run also audits the money end to end: per-query sunk cost
// (posted cost minus refunds, including shared-HIT split attribution)
// must sum exactly to the account's total spend, or the run errors.
func runMultiTenant(cfg Config) (Report, error) {
	rep := Report{Config: cfg}
	perQuery := max(1, cfg.Tuples/cfg.Queries)
	eng, err := NewEngine(core.Config{
		Crowd:           cfg.crowdConfig(),
		MaxInflightHITs: cfg.MaxInflight,
		PlanCacheSize:   cfg.planCacheSize(),
		Trace:           cfg.TracePath != "",
	}, multitenantTask, tenantTables(cfg.Queries, perQuery, cfg.Seed))
	if err != nil {
		return rep, err
	}
	defer eng.Close()
	eng.Manager().SetBasePolicy(taskmgr.Policy{
		Assignments: cfg.Assignments, BatchSize: cfg.Batch, PriceCents: cfg.PriceCents,
		Linger: time.Minute, UseCache: true,
	})

	// Pace the clock (as the streaming workload does) so the tenant
	// goroutines truly overlap in virtual time: at full simulator speed
	// the pump can fire one query's linger flush before the next
	// tenant's partial even reaches the pool, and nothing would ever
	// co-batch. The result fingerprints do not depend on the pacing —
	// only the HIT counts (how well sharing packed) do.
	eng.Clock().SetPace(2e-5)
	defer eng.Clock().SetPace(0)

	type result struct {
		fnv    uint64
		passed int64
		spent  budget.Cents
		err    error
	}
	results := make([]result, cfg.Queries)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, h, err := Query(eng, fmt.Sprintf("SELECT img FROM %s WHERE isCat(img)", tenantTable(i)),
				nil, core.WithSharedBatching(!cfg.NoShare))
			if h == nil {
				results[i].err = err
				return
			}
			passed := make([]string, len(rows))
			for j, row := range rows {
				passed[j] = row.Values[0].Str()
			}
			results[i] = result{fnv: fingerprint(passed), passed: int64(len(passed)), spent: h.SunkCents(), err: err}
		}()
	}
	wg.Wait()
	eng.Clock().SetPace(0) // queries done; drain the tail at full speed
	rep.Wall = time.Since(start)
	if err := engineTotals(eng, &rep); err != nil {
		return rep, err
	}
	if secs := rep.Wall.Seconds(); secs > 0 {
		rep.HITsPerSec = float64(rep.HITs) / secs
	}

	var all []string // per-query FNVs re-hashed into one combined print
	var sum budget.Cents
	minSpent, maxSpent := budget.Cents(-1), budget.Cents(0)
	rep.PerQueryFNV = make([]uint64, cfg.Queries)
	for i, r := range results {
		if r.err != nil {
			return rep, fmt.Errorf("load: tenant query %d: %w", i, r.err)
		}
		rep.PerQueryFNV[i] = r.fnv
		all = append(all, fmt.Sprintf("%016x", r.fnv))
		rep.Outcomes += int64(perQuery)
		rep.Passed += r.passed
		sum += r.spent
		if minSpent < 0 || r.spent < minSpent {
			minSpent = r.spent
		}
		maxSpent = max(maxSpent, r.spent)
	}
	rep.PassedKeysFNV = fingerprint(all)
	rep.FairSpreadCents = maxSpent - minSpent
	sh := eng.Manager().Sharing()
	rep.SharedHITs = sh.SharedHITs
	rep.CoBatchedItems = sh.CoBatchedItems
	rep.HITsSaved = sh.HITsSaved
	rep.SharedSavedCents = sh.SavedCents

	// Split-attribution audit: every cent the account spent must be
	// owned by exactly one query, through shared splits, detach refunds
	// and post-failure rollbacks alike.
	if sum != rep.Spent {
		return rep, fmt.Errorf("load: ledger drift: per-query sunk costs sum to %v, account spent %v", sum, rep.Spent)
	}
	return rep, nil
}
