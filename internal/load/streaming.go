package load

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// streamingTask is the boolean filter the streaming workload runs
// through the full engine (parser → planner → executor → Rows cursor).
const streamingTask = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
`

// runStreaming drives the context-first query API end to end: a filter
// query over the photo corpus consumed through a streaming Rows cursor,
// with a single saturated worker so HITs complete strictly in input
// order. That serialization is what makes the scenario deterministic:
// the set of the first CancelAfter delivered rows — and therefore the
// canceled-prefix fingerprint — is a pure function of Tuples and Seed,
// even though cancellation itself lands at a racy real-time moment.
//
// With CancelAfter > 0 the query's context is canceled as soon as that
// many rows have streamed out; the report then shows the HITs the
// cancellation kept unposted and asserts-friendly counters (posting
// stops, open HITs drain, budget refunds land in Spent).
func runStreaming(cfg Config) (Report, error) {
	rep := Report{Config: cfg}
	crowdCfg := cfg.crowdConfig()
	crowdCfg.Workers, crowdCfg.Shards = 1, 1 // single worker ⇒ completions in claim order
	eng, err := NewEngine(core.Config{
		Crowd: crowdCfg,
		// The window throttles posting so cancellation has something to
		// save: at most StreamWindow HITs are in flight at once.
		Exec:          exec.Config{FilterWindow: cfg.StreamWindow},
		PlanCacheSize: cfg.planCacheSize(),
		Trace:         cfg.TracePath != "",
	}, streamingTask, workload.Photos(cfg.Tuples, 0.5, 0.6, cfg.Seed))
	if err != nil {
		return rep, err
	}
	defer eng.Close()
	eng.Manager().SetBasePolicy(taskmgr.Policy{
		Assignments: 1, BatchSize: 1, PriceCents: cfg.PriceCents,
		Linger: time.Minute, UseCache: true,
	})

	// Pace the clock (~1ms real per HIT) so the consumer goroutine truly
	// interleaves with in-flight HITs; at full simulator speed the pump
	// can finish the whole virtual run before the cursor is scheduled
	// once, which would make "first row before last HIT" unobservable.
	// The prefix fingerprint does not depend on the pacing: a single
	// saturated worker completes HITs in input order regardless.
	eng.Clock().SetPace(2e-5)
	defer eng.Clock().SetPace(0)

	var delivered []string
	start := time.Now()
	_, h, err := Query(eng, `SELECT img FROM photos WHERE isCat(img)`, func(t relation.Tuple) bool {
		delivered = append(delivered, t.Values[0].String())
		return len(delivered) != cfg.CancelAfter
	})
	eng.Clock().SetPace(0) // stream observed; drain the rest at full speed

	// The cursor only ends after Cancel closed the operator queues,
	// which happens strictly after the scope was canceled — so from this
	// point every newly posted HIT would be money spent on a dead query.
	postedAtCancel := eng.Marketplace().Stats().HITsPosted
	if err != nil {
		expectCancel := cfg.CancelAfter > 0 && cfg.CancelAfter <= len(delivered)
		if !expectCancel || !errors.Is(err, qerr.ErrCanceled) {
			return rep, fmt.Errorf("load: streaming query: %w", err)
		}
	}
	rep.Wall = time.Since(start)

	// Let the simulation quiesce (claims for expired HITs drain) and
	// compare against the at-cancellation snapshot: the difference is
	// HITs posted after the cancellation took effect.
	if err := engineTotals(eng, &rep); err != nil {
		return rep, err
	}
	rep.HITsAfterCancel = rep.HITs - int64(postedAtCancel)
	rep.Outcomes = int64(len(delivered))
	rep.Passed = int64(len(delivered))
	if at, ok := h.Exec.FirstRowAt(); ok {
		rep.FirstRow = at
	}
	prefix := delivered
	if cfg.CancelAfter > 0 && len(prefix) > cfg.CancelAfter {
		prefix = prefix[:cfg.CancelAfter]
	}
	rep.Delivered = int64(len(prefix))
	rep.PassedKeysFNV = fingerprint(append([]string(nil), prefix...))
	return rep, nil
}
