package load

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/relation"
	"repro/internal/workload"
)

// NewEngine builds a query engine over datasets: their oracles are
// combined ahead of cfg.Oracle, their tables registered, then tasks
// defined. It is the one engine setup of the streaming and multitenant
// workloads and of the experiment tables.
func NewEngine(cfg core.Config, tasks string, data ...workload.Dataset) (*core.Engine, error) {
	var oracles []crowd.Oracle
	for _, ds := range data {
		oracles = append(oracles, ds.Oracle)
	}
	if cfg.Oracle != nil {
		oracles = append(oracles, cfg.Oracle)
	}
	cfg.Oracle = workload.Combine(oracles...)
	eng, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("load: %v", err)
	}
	for _, ds := range data {
		for _, t := range ds.Tables {
			if err := eng.Register(t); err != nil {
				eng.Close()
				return nil, err
			}
		}
	}
	if err := eng.Define(tasks); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// Query runs sql on eng and drains its cursor, returning every row,
// the query's handle and its terminal error. more, when set, sees each
// row as it streams out; returning false cancels the query, and the
// rows already on their way still drain.
func Query(eng *core.Engine, sql string, more func(relation.Tuple) bool, opts ...core.QueryOption) ([]relation.Tuple, *core.QueryHandle, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := eng.Query(ctx, sql, opts...)
	if err != nil {
		return nil, nil, err
	}
	defer rows.Close()
	var out []relation.Tuple
	for rows.Next() {
		out = append(out, rows.Tuple())
		if more != nil && !more(rows.Tuple()) {
			cancel()
		}
	}
	return out, rows.Handle(), rows.Err()
}

// engineTotals waits for an engine-driven run to quiesce — no
// assignment in flight, no clock event pending; the engine pumps its
// own clock, so this is a real-time wait on simulated progress — then
// fills the report's marketplace totals and writes the run's trace.
// Spent is the account's refund-adjusted sunk cost.
func engineTotals(eng *core.Engine, rep *Report) error {
	deadline := time.Now().Add(30 * time.Second)
	for eng.Manager().Inflight() != 0 || eng.Clock().Pending() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("load: %s run did not quiesce (inflight=%d pending=%d)",
				rep.Config.Workload, eng.Manager().Inflight(), eng.Clock().Pending())
		}
		time.Sleep(time.Millisecond)
	}
	// A post already past its scope check when a cancel landed may
	// still be on its way; give it a moment to show in the totals.
	time.Sleep(10 * time.Millisecond)
	st := eng.Marketplace().Stats()
	rep.HITs = int64(st.HITsPosted)
	rep.Assignments = int64(st.AssignmentsCompleted)
	rep.Questions = int64(st.QuestionsAnswered)
	rep.Spent = eng.Manager().Account().Spent()
	rep.Makespan = eng.Clock().Now()
	sink := newTraceSink(rep.Config)
	sink.collect(eng.Tracer())
	return sink.flush()
}
