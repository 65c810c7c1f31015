package load

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/taskmgr"
)

// variant names what a phase's stack adds to the plain marketplace
// stack.
type variant int

const (
	plain    variant = iota // the simulated marketplace alone
	stored                  // plain, plus the knowledge store when Config.StorePath is set
	routed                  // isCat served by an LLM crowd behind a backend router
	adaptive                // EM answer inference with adaptive redundancy
)

// stack is one phase's isolated crowd stack: its own clock, crowd pool,
// marketplace, worker backend, task manager, tracer and (stored phases)
// knowledge store. Every virtual-time metric a phase reports comes from
// its own stack, so phases are deterministic and directly comparable.
type stack struct {
	clock  *mturk.Clock
	be     backend.Backend
	router *backend.Router // routed phases only
	mgr    *taskmgr.Manager
	sink   *traceSink
	tr     *obs.Tracer
	st     *store.Store

	// replay is the wall time the store's Open + restore took; warm is
	// what it restored.
	replay time.Duration
	warm   taskmgr.RestoreSummary
	// latencies are the virtual post-to-done times of completed HITs,
	// collected as the marketplace disposes of them.
	latencies []time.Duration
}

// newStack builds one phase's stack over oracle's ground truth.
func newStack(cfg Config, oracle crowd.Oracle, sink *traceSink, v variant) (*stack, error) {
	s := &stack{clock: mturk.NewClock(), sink: sink}
	market := mturk.NewMarketplace(s.clock, crowd.NewPool(cfg.crowdConfig(), oracle))
	if cfg.Workload != WorkloadInference {
		// Let the marketplace drop completed-HIT state, so runs with
		// tens of thousands of tuples stay flat in memory. The inference
		// workload keeps it: its adaptive loop extends a HIT at the
		// instant its last posted assignment completes, and both its
		// phases share that posture so they differ in one variable.
		market.SetAutoDispose(true, func(hs mturk.HITStatus) {
			s.latencies = append(s.latencies, (hs.DoneAt - hs.PostedAt).Duration())
		})
	}
	s.be = backend.NewSim(market)
	if v == routed {
		// The LLM crowd's model reads the same ground truth the oracle
		// does, quoting half the human reward (withDefaults keeps that at
		// 2¢ or more, so routing always has a cent to save).
		model := func(task string, _ qlang.TaskType, args []relation.Value) relation.Value {
			return oracle.Truth(task, args)
		}
		llm := backend.NewLLM(s.clock, backend.LLMConfig{Model: model, PriceCents: cfg.PriceCents / 2})
		router, err := backend.NewRouter("sim", s.be, llm)
		if err == nil {
			err = router.Pin("isCat", "llm")
		}
		if err != nil {
			s.clock.Close()
			return nil, fmt.Errorf("load: %v", err)
		}
		s.router, s.be = router, router
	}
	s.mgr = taskmgr.NewWithBackend(s.be, nil, nil, nil)
	if s.tr = sink.tracer(s.clock.Now); s.tr != nil {
		s.mgr.SetObs(s.tr)
	}
	if v == adaptive {
		s.mgr.SetInference("em", cfg.MinAssignments, 0)
	}
	if v == stored && cfg.StorePath != "" {
		start := time.Now()
		st, err := store.Open(cfg.StorePath)
		if err != nil {
			s.clock.Close()
			return nil, fmt.Errorf("load: %v", err)
		}
		st.View(func(state *store.State) { s.warm = s.mgr.Restore(state) })
		s.mgr.SetJournal(st)
		s.st, s.replay = st, time.Since(start)
	}
	s.mgr.SetBasePolicy(taskmgr.Policy{
		Assignments: cfg.Assignments,
		BatchSize:   cfg.Batch,
		PriceCents:  cfg.PriceCents,
		Linger:      time.Minute,
		// Only the warmstart workload arms the cache — that is the point
		// of it. Elsewhere the cache and model never hit on this
		// synthetic data; skipping their bookkeeping keeps the harness
		// measuring the posting path.
		UseCache: cfg.Workload == WorkloadWarmstart,
	})
	return s, nil
}

// close harvests the phase's spans and releases the stack.
func (s *stack) close() {
	s.sink.collect(s.tr)
	if s.st != nil {
		s.st.Close()
	}
	s.clock.Close()
}

// pump advances the virtual clock on this goroutine until done holds.
// Follow-up submissions happen in Done callbacks on this goroutine too,
// and partial batches are flushed by linger timers (scheduled clock
// events), so an event queue that stays empty after a flush while work
// is outstanding is a genuine stall.
func (s *stack) pump(done func() bool) error {
	for !done() {
		if !s.clock.Step() {
			s.mgr.FlushAll()
			if !s.clock.Step() {
				return fmt.Errorf("load: stalled at %.1f vmin with work outstanding", s.clock.Now().Minutes())
			}
		}
	}
	return nil
}

// run drives one scenario to completion on the stack.
func (s *stack) run(sc scenario) (phase, error) {
	var ctr counters
	sc(s.mgr, &ctr)
	s.mgr.FlushAll()
	err := s.pump(func() bool { return ctr.outstanding == 0 })
	return s.measure(&ctr), err
}

// phase is what one run on one stack measured.
type phase struct {
	HITs, Assignments, Questions int64
	Spent                        budget.Cents
	Makespan                     mturk.VirtualTime
	Outcomes, Errors, Passed     int64
	Pairs                        int64
	FNV                          uint64
}

// measure reads the stack's totals and the phase's counters.
func (s *stack) measure(ctr *counters) phase {
	st := s.be.Stats()
	return phase{
		HITs:        int64(st.HITsPosted),
		Assignments: int64(st.AssignmentsCompleted),
		Questions:   int64(st.QuestionsAnswered),
		Spent:       st.SpentCents,
		Makespan:    s.clock.Now(),
		Outcomes:    ctr.outcomes,
		Errors:      ctr.errors,
		Passed:      ctr.passed,
		Pairs:       ctr.pairs,
		FNV:         fingerprint(ctr.keys),
	}
}

// runPhases runs one phase per variant, each on a fresh stack over
// oracle, then writes the run's trace. rep gets the wall time the
// phases ran for (stack setup and store replay excluded) and the HITs
// they posted per real second.
func runPhases(rep *Report, oracle crowd.Oracle, run func(i int, s *stack) (phase, error), variants ...variant) ([]phase, error) {
	sink := newTraceSink(rep.Config)
	phases := make([]phase, len(variants))
	var hits int64
	for i, v := range variants {
		s, err := newStack(rep.Config, oracle, sink, v)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		phases[i], err = run(i, s)
		rep.Wall += time.Since(start)
		s.close()
		if err != nil {
			return nil, err
		}
		hits += phases[i].HITs
	}
	if secs := rep.Wall.Seconds(); secs > 0 {
		rep.HITsPerSec = float64(hits) / secs
	}
	return phases, sink.flush()
}

// set makes ph the report's headline phase.
func (r *Report) set(ph phase) {
	r.HITs, r.Assignments, r.Questions, r.Spent = ph.HITs, ph.Assignments, ph.Questions, ph.Spent
	r.Makespan = ph.Makespan
	r.Outcomes, r.Errors, r.Passed = ph.Outcomes, ph.Errors, ph.Passed
	r.PassedKeysFNV = ph.FNV
}

// setLatencies fills the virtual HIT-latency percentiles.
func (r *Report) setLatencies(latencies []time.Duration) {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		r.P50 = latencies[n/2]
		r.P99 = latencies[min(n-1, n*99/100)]
	}
}
