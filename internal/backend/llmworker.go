package backend

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// ModelFunc answers one HIT question: given the task, its kind, and the
// item's argument values, return the answer value a worker would type.
// For Order responses the returned value is a score — the backend sorts
// scores into rank positions exactly as the simulated crowd does. The
// function must be deterministic for the verify harness to pin runs.
type ModelFunc func(task string, tt qlang.TaskType, args []relation.Value) relation.Value

// LLMConfig configures an LLM worker crowd.
type LLMConfig struct {
	// Model answers every question. Required.
	Model ModelFunc
	// PriceCents is the per-assignment quote (what one model call
	// costs, in the engine's ledger). Zero quotes the policy price.
	PriceCents int64
	// Latency is the virtual-clock delay before each assignment lands;
	// assignment i of a HIT arrives after (i+1)×Latency so completions
	// stay distinct and ordered. Zero means one virtual second.
	Latency time.Duration
	// Quality maps task kinds to the prior answer accuracy the
	// optimizer should assume before live observations accumulate. The
	// backend itself never reads it; ChooseBackend does. A kind absent
	// from a non-nil map is one this crowd should not be routed.
	Quality map[qlang.TaskType]float64
}

// llmHIT is one posted HIT's collection state.
type llmHIT struct {
	status   mturk.HITStatus
	callback func(mturk.AssignmentResult)
	disposed bool
}

// LLM is a worker backend where a model-call function answers HITs.
// Completions are scheduled on the shared virtual clock, so a run mixing
// LLM and simulated-crowd backends replays deterministically.
type LLM struct {
	clock  *mturk.Clock
	cfg    LLMConfig
	nextID atomic.Int64

	mu   sync.Mutex
	hits map[string]*llmHIT

	cfgMu   sync.RWMutex
	onError func(hitID string, err error)

	hitsPosted           atomic.Int64
	assignmentsCompleted atomic.Int64
	questionsAnswered    atomic.Int64
	spentCents           atomic.Int64
	externalSubmissions  atomic.Int64
}

// NewLLM builds an LLM worker backend on the given clock.
func NewLLM(clock *mturk.Clock, cfg LLMConfig) *LLM {
	if cfg.Latency <= 0 {
		cfg.Latency = time.Second
	}
	return &LLM{clock: clock, cfg: cfg, hits: make(map[string]*llmHIT)}
}

// Name implements Backend.
func (l *LLM) Name() string { return "llm" }

// Clock implements Backend.
func (l *LLM) Clock() *mturk.Clock { return l.clock }

// NewHITID implements Backend.
func (l *LLM) NewHITID() string { return mturk.PaddedID("LHIT-", l.nextID.Add(1)) }

// QuoteCents implements Pricer: the model-call price when configured.
func (l *LLM) QuoteCents(task string, tt qlang.TaskType, policyCents int64) int64 {
	if l.cfg.PriceCents > 0 {
		return l.cfg.PriceCents
	}
	return policyCents
}

// SetErrorHandler implements Backend; safe before or after posting.
func (l *LLM) SetErrorHandler(fn func(hitID string, err error)) {
	l.cfgMu.Lock()
	l.onError = fn
	l.cfgMu.Unlock()
}

// SetWorkerFilter implements Backend. LLM workers have no identities a
// reputation blocklist could exclude, so the filter is accepted and
// ignored.
func (l *LLM) SetWorkerFilter(fn func(workerID string) bool) {}

// Post implements Backend: each of the HIT's assignments is answered by
// one model pass, scheduled on the virtual clock.
func (l *LLM) Post(h *hit.HIT, onAssignment func(mturk.AssignmentResult)) error {
	if l.cfg.Model == nil {
		return fmt.Errorf("backend: llm: no model function configured")
	}
	if err := h.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	if _, dup := l.hits[h.ID]; dup {
		l.mu.Unlock()
		return fmt.Errorf("backend: llm: duplicate HIT %s", h.ID)
	}
	l.hits[h.ID] = &llmHIT{
		status:   mturk.HITStatus{HIT: h, PostedAt: l.clock.Now()},
		callback: onAssignment,
	}
	l.mu.Unlock()
	l.hitsPosted.Add(1)
	for i := 0; i < h.Assignments; i++ {
		worker := fmt.Sprintf("llm-%d", i+1)
		l.clock.Schedule(l.cfg.Latency*time.Duration(i+1), func() {
			l.complete(h.ID, hit.Answers{WorkerID: worker, Values: l.answer(h)}, false)
		})
	}
	return nil
}

// answer runs the model over every question of the HIT into an answer
// sheet, mirroring the simulated crowd's shapes (every pair row-major
// for join grids, rank positions for Order responses).
func (l *LLM) answer(h *hit.HIT) []relation.Value {
	vals := make([]relation.Value, 0, h.QuestionCount())
	if h.Response.Kind == qlang.ResponseJoinColumns {
		for _, lt := range h.Left {
			for _, rt := range h.Right {
				args := append(append([]relation.Value{}, lt.Args...), rt.Args...)
				vals = append(vals, l.cfg.Model(h.Task, h.Type, args))
			}
		}
		return vals
	}
	for _, it := range h.Items {
		vals = append(vals, l.cfg.Model(h.EffectiveTask(it), h.Type, it.Args))
	}
	if h.Response.Kind == qlang.ResponseOrder {
		// Scores become rank positions 0..n-1 (ascending, stable), as
		// the Order form requires and the crowd simulator produces.
		order := make([]int, len(vals))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return vals[order[i]].Float() < vals[order[j]].Float() })
		for rank, i := range order {
			vals[i] = relation.NewInt(int64(rank))
		}
	}
	return vals
}

// complete fills one assignment slot, paying the reward, and delivers
// the result. Late completions on a disposed or already-full HIT are
// discarded unpaid, exactly like the marketplace.
func (l *LLM) complete(hitID string, ans hit.Answers, external bool) {
	l.mu.Lock()
	ph, ok := l.hits[hitID]
	if !ok || ph.disposed || !ph.status.Open() {
		l.mu.Unlock()
		return
	}
	ph.status.Completed++
	ph.status.Spent += budget.Cents(ph.status.HIT.RewardCents)
	now := l.clock.Now()
	if !ph.status.Open() {
		ph.status.DoneAt = now
	}
	cb := ph.callback
	questions := ph.status.HIT.QuestionCount()
	reward := ph.status.HIT.RewardCents
	l.mu.Unlock()
	l.assignmentsCompleted.Add(1)
	l.questionsAnswered.Add(int64(questions))
	l.spentCents.Add(reward)
	if external {
		l.externalSubmissions.Add(1)
	}
	if cb != nil {
		cb(mturk.AssignmentResult{HITID: hitID, Answers: ans, SubmittedAt: now, External: external})
	}
}

// SubmitExternal implements Backend: the answer fills a paid slot like
// any assignment, marked external.
func (l *LLM) SubmitExternal(hitID string, ans hit.Answers) error {
	l.mu.Lock()
	ph, ok := l.hits[hitID]
	open := ok && !ph.disposed && ph.status.Open()
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("backend: llm: unknown HIT %s", hitID)
	}
	if !open {
		return fmt.Errorf("backend: llm: HIT %s has no open assignments", hitID)
	}
	l.complete(hitID, ans, true)
	return nil
}

// Dispose implements Backend.
func (l *LLM) Dispose(hitID string) (mturk.HITStatus, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ph, ok := l.hits[hitID]
	if !ok {
		return mturk.HITStatus{}, false
	}
	ph.disposed = true
	delete(l.hits, hitID)
	return ph.status, true
}

// Status implements Backend.
func (l *LLM) Status(hitID string) (mturk.HITStatus, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ph, ok := l.hits[hitID]
	if !ok {
		return mturk.HITStatus{}, false
	}
	return ph.status, true
}

// Stats implements Backend.
func (l *LLM) Stats() mturk.Stats {
	return mturk.Stats{
		HITsPosted:           int(l.hitsPosted.Load()),
		AssignmentsCompleted: int(l.assignmentsCompleted.Load()),
		QuestionsAnswered:    int(l.questionsAnswered.Load()),
		SpentCents:           budget.Cents(l.spentCents.Load()),
		ExternalSubmissions:  int(l.externalSubmissions.Load()),
	}
}
