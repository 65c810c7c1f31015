package taskmgr

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/hit"
	"repro/internal/infer"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/store"
)

// This file is the HIT lifecycle every HIT kind shares — filter batches,
// grouped HITs, join grids and comparison HITs alike: one flight record
// per posted HIT, one launch path (charge, register, post, roll back),
// one completion and one failure callback, one finalization and one
// scope-cancel path. The kinds differ only in their answer shape:
// item-wise HITs resolve each item key through its own callback, in a
// fixed key order; comparison HITs hand every complete ranking to one
// callback.

// flight is one posted HIT's collection state.
type flight struct {
	hit    *hit.HIT
	state  *taskState   // the HIT's task: latency, HIT count, finalize policy
	shares []hitShare   // per-scope stakes; one entry unless co-batched
	cost   budget.Cents // total charged (sum of shares, plus extensions)
	reward int64        // per-assignment price

	// items are the HIT's items in answer order — batch and grouped items
	// in HIT order, grid pairs row-major — so item i is answered at
	// position i of every answer sheet. An item whose done is nil (a
	// grid pair no caller waits on) is still cached and journaled.
	items []pendingItem
	// ranked, when set, makes this an ordering-shaped (comparison) HIT:
	// it receives every complete ranking instead of per-item outcomes.
	ranked func([]Ranking, error)

	byWorker []hit.Answers
	received int
	needed   int
	assign   int  // assignments at post time; basis for pro-rata refunds
	admitted bool // batch HIT: holds an admission-scheduler slot until retired
	postedAt mturk.VirtualTime
	backend  string // serving backend name, recorded at post time

	// Adaptive redundancy (adaptive.go). agg is non-nil only when an EM
	// aggregator resolves this HIT's answers; adaptive marks HITs posted
	// below capA whose completions may buy further assignments.
	agg      infer.Aggregator
	adaptive bool
	boolTask bool    // boolean vs categorical EM model
	target   float64 // posterior confidence that stops extending
	capA     int     // policy assignment cap for this HIT

	// Tracing (obs.go): span is the HIT's trace span (nil when tracing
	// was off at post time), opSpans the distinct submitting operator
	// spans (HIT/cost attribution), extSpans the adaptive extension
	// spans in purchase order. span and opSpans are fixed before the
	// HIT becomes visible to completions; extSpans appends take the
	// stripe lock. queuedAt and batchSize (batch HITs only) feed the
	// admission-wait and fill-ratio records.
	span      *obs.Span
	opSpans   []*obs.Span
	extSpans  []*obs.Span
	queuedAt  mturk.VirtualTime
	batchSize int
}

// hitShare is one scope's stake in a (possibly shared) HIT: the slice of
// the HIT cost it was charged. cost is maintained as
// charged-and-not-yet-refunded, so detach and expiry refunds can never
// double-pay; mutations after posting happen under the HIT's stripe
// lock.
type hitShare struct {
	scope    *Scope
	cost     budget.Cents
	detached bool
}

// resolution is one outcome waiting for its callback.
type resolution struct {
	done func(Outcome)
	out  Outcome
}

func resolveAll(rs []resolution) {
	for _, r := range rs {
		r.done(r.out)
	}
}

// flightStripes is the number of lock stripes for in-flight HIT state.
const flightStripes = 16

// flightStripe holds the in-flight HITs whose IDs hash to it.
type flightStripe struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// flightTable stripes in-flight collection state by HIT ID, mirroring
// the marketplace's shards: completions of different HITs take
// different locks.
type flightTable struct {
	stripes [flightStripes]flightStripe
}

func (t *flightTable) stripeFor(hitID string) *flightStripe {
	return &t.stripes[mturk.ShardIndex(hitID, flightStripes)]
}

// newFlight starts the record of one HIT of def's task under pol,
// posting with assign assignments.
func (m *Manager) newFlight(st *taskState, def *qlang.TaskDef, pol Policy, assign int, items []pendingItem) *flight {
	price := m.priceFor(def, pol)
	return &flight{state: st, items: items, reward: price, cost: budget.Cents(price * int64(assign)),
		byWorker: make([]hit.Answers, 0, assign),
		needed:   assign, assign: assign, capA: pol.Assignments, backend: m.servingBackend(def)}
}

// detached reports whether sc withdrew its stake from this shared HIT.
func (fl *flight) detached(sc *Scope) bool {
	for i := range fl.shares {
		if fl.shares[i].scope == sc {
			return fl.shares[i].detached
		}
	}
	return false
}

// owed reports whether an item is still owed an answer: its scope has
// not detached. Only shared HITs detach.
func (fl *flight) owed(it pendingItem) bool {
	return len(fl.shares) < 2 || !fl.detached(it.scope)
}

// live returns the items still owed an answer.
func (fl *flight) live() []pendingItem {
	if len(fl.shares) < 2 {
		return fl.items
	}
	out := make([]pendingItem, 0, len(fl.items))
	for _, it := range fl.items {
		if fl.owed(it) {
			out = append(out, it)
		}
	}
	return out
}

// votes collects the answers given at one answer position, in arrival
// order.
func (fl *flight) votes(pos int) []relation.Value {
	out := make([]relation.Value, 0, len(fl.byWorker))
	for _, wa := range fl.byWorker {
		if pos < len(wa.Values) {
			out = append(out, wa.Values[pos])
		}
	}
	return out
}

// fail resolves every caller still waiting on the flight with err.
func (fl *flight) fail(err error) {
	if fl.ranked != nil {
		fl.ranked(nil, fmt.Errorf("taskmgr: %s: %w", fl.items[0].def.Name, err))
		return
	}
	failItems(fl.live(), err)
}

// failItems resolves each item's callback with err, attributed to the
// item's task.
func failItems(items []pendingItem, err error) {
	for _, it := range items {
		if it.done != nil {
			it.done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", it.def.Name, err)})
		}
	}
}

// taskOf returns the task state an item's statistics belong to: the
// HIT's own, unless the item asks another task (grouped HITs).
func (m *Manager) taskOf(st *taskState, def *qlang.TaskDef) *taskState {
	if strings.EqualFold(def.Name, st.name) {
		return st
	}
	return m.state(def.Name, def)
}

// answerFree answers one application from the Task Cache or, for
// boolean tasks, a confident Task Model — the short-circuit every
// submission path takes before paying humans. ok is false when humans
// must answer.
func (m *Manager) answerFree(st *taskState, pol Policy, def *qlang.TaskDef, args []relation.Value, side string, span *obs.Span) (out Outcome, ok bool) {
	if pol.UseCache {
		if entry, found := m.cache.Get(cache.NewKey(def.Name, args)); found && len(entry.Answers) > 0 {
			st.mu.Lock()
			st.cacheHits++
			st.mu.Unlock()
			span.AddCacheHits(1)
			if reg := m.obsRegistry(); reg != nil {
				reg.Counter(obs.MetricCacheHits, obs.L("task", def.Name)).Add(1)
			}
			out = reduce(def, entry.Answers)
			out.FromCache = true
			if isBooleanTask(def) {
				st.observeSelectivity(out.Value.Truthy(), side)
			}
			return out, true
		}
	}
	if !pol.UseModel || !isBooleanTask(def) {
		return Outcome{}, false
	}
	tm, found := m.models.For(def.Name)
	if !found {
		return Outcome{}, false
	}
	v, _, confident := tm.TryAnswer(args)
	if !confident {
		return Outcome{}, false
	}
	st.mu.Lock()
	st.modelAnswers++
	st.mu.Unlock()
	span.AddModelHits(1)
	if reg := m.obsRegistry(); reg != nil {
		reg.Counter(obs.MetricModelAnswers, obs.L("task", def.Name)).Add(1)
	}
	st.observeSelectivity(v.Truthy(), side)
	return Outcome{Value: v, Answers: []relation.Value{v}, Agreement: 1, FromModel: true}, true
}

// launch is the one posting path of every HIT kind. It charges each
// participating scope its share and then the account, renders the HIT
// over the items that survived the charge (build), registers the
// flight, posts through m.post, rolls the charge back when the post
// fails, and registers the HIT with its scopes. free holds the call's
// answers that needed no human; they resolve once the launch settles,
// ahead of any failure it reports. No locks are held: posting calls
// into the marketplace and, on failure, back into user callbacks.
// launch reports whether a HIT reached the marketplace.
func (m *Manager) launch(fl *flight, free []resolution, build func([]pendingItem) *hit.HIT) bool {
	err := m.charge(fl)
	if err == nil {
		fl.hit = build(fl.items)
		fl.hit.ID = m.market.NewHITID()
		fl.hit.RewardCents, fl.hit.Assignments = fl.reward, fl.assign
		m.countPosted(fl)
		fl.postedAt = m.market.Clock().Now()
		m.traceLaunch(fl)
		s := m.flights.stripeFor(fl.hit.ID)
		s.mu.Lock()
		if s.flights == nil {
			s.flights = make(map[string]*flight)
		}
		s.flights[fl.hit.ID] = fl
		s.mu.Unlock()
		if perr := m.post(fl.hit); perr != nil {
			s.mu.Lock()
			delete(s.flights, fl.hit.ID)
			s.mu.Unlock()
			m.traceHITFailed(fl, perr, false)
			// Refund with the same split attribution as the charge: each
			// scope gets back exactly its share, once, and the account the
			// exact total.
			for i := range fl.shares {
				m.account.Refund(fl.shares[i].cost)
				fl.shares[i].scope.refund(fl.shares[i].cost)
			}
			err = fmt.Errorf("post: %w", perr)
		}
	}
	if err != nil {
		resolveAll(free)
		fl.fail(err)
		return false
	}
	m.tracePosted(fl)
	for i := range fl.shares {
		if cause := fl.shares[i].scope.registerHIT(fl.hit.ID); cause != nil {
			// The scope was canceled while the HIT was being posted;
			// withdraw its stake ourselves — cancellation never saw it.
			m.cancelScopeHIT(fl.hit.ID, fl.shares[i].scope, cause)
		}
	}
	resolveAll(free)
	return true
}

// charge bills each participating scope its item-count share of the
// HIT cost (integer cents, largest-remainder rounding, so per-scope
// budgets and refunds stay exact), then the account. When one scope's
// budget cannot cover its slice, the scopes already charged are
// refunded, that scope's items fail, and the rest re-split — the HIT
// price does not depend on how many scopes fill it, so the loop
// strictly shrinks the scope set and terminates. The last scope's
// failure is the flight's.
func (m *Manager) charge(fl *flight) error {
	for {
		fl.shares = shareOut(fl.items, fl.cost)
		bad, err := -1, error(nil)
		for i := range fl.shares {
			if err = fl.shares[i].scope.spend(fl.shares[i].cost); err != nil {
				bad = i
				break
			}
		}
		if bad < 0 {
			if err = m.account.Spend(fl.cost); err != nil {
				for i := range fl.shares {
					fl.shares[i].scope.refund(fl.shares[i].cost)
				}
			}
			return err
		}
		for i := 0; i < bad; i++ {
			fl.shares[i].scope.refund(fl.shares[i].cost)
		}
		if len(fl.shares) == 1 {
			return err
		}
		sc := fl.shares[bad].scope
		var dropped []pendingItem
		kept := fl.items[:0]
		for _, it := range fl.items {
			if it.scope == sc {
				dropped = append(dropped, it)
			} else {
				kept = append(kept, it)
			}
		}
		fl.items = kept
		failItems(dropped, err)
	}
}

// countPosted books a charged HIT on its task's counters — the HIT and
// its cost once under the HIT's task, each question under its own task
// — and on the cross-query sharing counters.
func (m *Manager) countPosted(fl *flight) {
	st := fl.state
	own := 0
	for _, it := range fl.items {
		if its := m.taskOf(st, it.def); its != st {
			its.mu.Lock()
			its.questionsAsked++
			its.mu.Unlock()
		} else {
			own++
		}
	}
	st.mu.Lock()
	st.spent += fl.cost
	st.hitsPosted++
	st.questionsAsked += int64(own)
	st.mu.Unlock()
	if n := len(fl.shares); n > 1 {
		m.sharedHITs.Add(1)
		m.sharedItems.Add(int64(len(fl.items)))
		m.sharedSaved.Add(int64(n - 1))
		m.savedCents.Add(int64(fl.cost) * int64(n-1))
	}
}

// splitCost divides a HIT's cost across scopes proportionally to their
// item counts, in integer cents, with largest-remainder rounding so
// the parts always sum exactly to the total. Ties break toward earlier
// shares (batch first-appearance order), keeping the split
// deterministic.
func splitCost(total budget.Cents, counts []int) []budget.Cents {
	sum := 0
	for _, c := range counts {
		sum += c
	}
	out := make([]budget.Cents, len(counts))
	if sum == 0 {
		return out
	}
	assigned := budget.Cents(0)
	rems := make([]int64, len(counts))
	for i, c := range counts {
		num := int64(total) * int64(c)
		out[i] = budget.Cents(num / int64(sum))
		rems[i] = num % int64(sum)
		assigned += out[i]
	}
	for extra := total - assigned; extra > 0; extra-- {
		best := 0
		for i, r := range rems {
			if r > rems[best] {
				best = i
			}
		}
		out[best]++
		rems[best] = -1
	}
	return out
}

// shareOut groups items by scope in first-appearance order and splits
// the HIT cost across the groups by item count.
func shareOut(items []pendingItem, cost budget.Cents) []hitShare {
	if oneScope(items) {
		return []hitShare{{scope: items[0].scope, cost: cost}}
	}
	var shares []hitShare
	var counts []int
	idx := make(map[*Scope]int, 1)
	for _, it := range items {
		i, ok := idx[it.scope]
		if !ok {
			i = len(shares)
			idx[it.scope] = i
			shares = append(shares, hitShare{scope: it.scope})
			counts = append(counts, 0)
		}
		counts[i]++
	}
	for i, c := range splitCost(cost, counts) {
		shares[i].cost = c
	}
	return shares
}

// oneScope reports whether every item belongs to the first item's scope.
func oneScope(items []pendingItem) bool {
	for _, it := range items[1:] {
		if it.scope != items[0].scope {
			return false
		}
	}
	return true
}

// post sends a HIT to the marketplace, via the test hook when one is
// installed.
func (m *Manager) post(h *hit.HIT) error {
	if hook := m.postHook.Load(); hook != nil {
		if err := (*hook)(h); err != nil {
			return err
		}
	}
	return m.market.Post(h, m.onAssignment)
}

// onAssignment collects one completed assignment; when the HIT has all
// of them, it finalizes. Only one goroutine can observe received ==
// needed under the stripe lock, so finalization runs exactly once,
// outside all locks.
func (m *Manager) onAssignment(res mturk.AssignmentResult) {
	s := m.flights.stripeFor(res.HITID)
	s.mu.Lock()
	fl, ok := s.flights[res.HITID]
	if !ok {
		s.mu.Unlock()
		return
	}
	fl.byWorker = append(fl.byWorker, res.Answers)
	fl.received++
	m.traceAssignment(fl, res.Answers.WorkerID)
	if fl.received < fl.needed {
		s.mu.Unlock()
		return
	}
	if fl.adaptive && fl.needed < fl.capA && !m.itemsConfident(fl) {
		// Posterior still unsure below the cap: keep the HIT in flight
		// and buy one more assignment. No other completion can race in —
		// every posted slot has reported — so this goroutine alone
		// decides extend-or-finalize.
		s.mu.Unlock()
		m.extendInflight(s, res.HITID, fl)
		return
	}
	delete(s.flights, res.HITID)
	s.mu.Unlock()
	m.retire(fl)
	m.finalize(fl)
}

// onAssignmentFailed reduces a HIT's expected assignment count; when
// nothing more can arrive the HIT refunds the slots that never
// completed, then finalizes with whatever it has, or fails its callers
// when it has nothing.
func (m *Manager) onAssignmentFailed(hitID string, err error) {
	s := m.flights.stripeFor(hitID)
	s.mu.Lock()
	fl, ok := s.flights[hitID]
	if !ok {
		s.mu.Unlock()
		return
	}
	fl.needed--
	if fl.received < fl.needed {
		s.mu.Unlock()
		return
	}
	delete(s.flights, hitID)
	refunds, total := fl.takeUnconsumed()
	m.traceRefund(fl, total)
	s.mu.Unlock()
	for _, r := range refunds {
		r.scope.refund(r.cost)
	}
	if total > 0 {
		m.account.Refund(total)
	}
	m.retire(fl)
	if fl.received == 0 {
		m.traceHITFailed(fl, err, true)
		fl.fail(err)
		return
	}
	m.finalize(fl)
}

// retire forgets a HIT that left the in-flight table at every
// participating scope and frees its admission slot.
func (m *Manager) retire(fl *flight) {
	for i := range fl.shares {
		fl.shares[i].scope.unregisterHIT(fl.hit.ID)
	}
	m.hitRetired(fl)
}

// finalize resolves a completed (or partially failed) HIT through its
// answer shape. Item-wise HITs resolve in item order so reruns resolve
// identically. It must not hold any manager lock: the callbacks may
// reenter Submit.
func (m *Manager) finalize(fl *flight) {
	st := fl.state
	latencyMin := (m.market.Clock().Now() - fl.postedAt).Minutes()
	st.latency.Observe(latencyMin)
	j := m.getJournal()
	if j != nil {
		j.Append(store.Record{Kind: store.KindLatency, Task: fl.hit.Task, X: latencyMin})
	}
	if fl.adaptive {
		m.adaptiveHITs.Add(1)
		m.adaptiveAssign.Add(int64(fl.assign))
		m.adaptiveCapSum.Add(int64(fl.capA))
		if saved := int64(fl.capA-fl.assign) * fl.reward; saved > 0 {
			m.inferSaved.Add(saved)
		}
	}

	// Under an EM aggregator, resolve answers from one joint fit over
	// the whole HIT — worker accuracies and item posteriors estimated
	// together — and feed the fitted accuracies back as quality
	// evidence. The fit reads the same votes in the same order as the
	// adaptive loop's confidence checks, so the finalized answer is the
	// posterior that stopped the extensions.
	var posts []*infer.Posterior // by answer position; nil where no fit ran
	if em, ok := fl.agg.(*infer.EM); ok {
		items, pos := fl.votesByItem()
		ps, accs := em.Fit(items, fl.boolTask)
		posts = make([]*infer.Posterior, len(fl.items))
		for k, i := range pos {
			posts[i] = &ps[k]
		}
		m.noteWorkerQuality(accs)
	}
	m.traceHITDone(fl, latencyMin, posts)
	if fl.ranked != nil {
		m.finalizeRanking(fl, latencyMin, j)
		return
	}

	// A grouped HIT's cache and training decisions follow the HIT's
	// (lead) task policy; its statistics go to each item's own task.
	pol := st.policyIn(m.basePolicy(), nil, 0)
	resolved := make([]resolution, 0, len(fl.items))
	var agreeSum float64
	n := 0
	for i, it := range fl.items {
		if !fl.owed(it) {
			continue
		}
		n++
		answers := fl.votes(i)
		out := reduce(it.def, answers)
		if posts != nil && posts[i] != nil && len(answers) > 0 {
			out.Value = posts[i].Value
			out.Agreement = posts[i].Confidence
		}
		its := m.taskOf(st, it.def)
		its.agreement.Observe(out.Agreement)
		agreeSum += out.Agreement
		boolean := isBooleanTask(it.def)
		if boolean {
			its.observeSelectivity(out.Value.Truthy(), it.side)
			m.noteWorkerVotes(fl.byWorker, i, out.Value.Truthy())
		}
		var key cache.Key // encoded once, for the cache and the journal
		if pol.UseCache || (j != nil && pol.TrainModel) {
			key = cache.NewKey(it.def.Name, it.args)
		}
		if pol.UseCache {
			m.cache.Put(key, cache.Entry{Answers: answers})
		}
		if pol.TrainModel && boolean {
			if tm, ok := m.models.For(it.def.Name); ok {
				tm.Train(it.args, out.Value.Truthy())
			}
		}
		if j != nil {
			m.journalItem(j, pol, it.def, key, it.side, answers, out)
		}
		if it.done != nil {
			resolved = append(resolved, resolution{done: it.done, out: out})
		}
	}
	if n > 0 {
		m.observeBackend(fl.backend, fl.hit.Type, fl.reward, latencyMin, agreeSum/float64(n))
	}
	resolveAll(resolved)
}

// cancelScopeHIT withdraws one scope's stake from a posted HIT of any
// kind. For a HIT the scope holds alone — the default — that is full
// expiry: the HIT leaves the in-flight table (so a racing completion
// finalizes nothing), is disposed at the marketplace, its uncompleted
// assignments refund, and every waiting caller resolves with the cause.
// For a HIT shared with other live scopes the stake merely detaches:
// the scope's items resolve with the cause, its share of the
// not-yet-completed assignments refunds, and the HIT keeps running for
// the remaining participants. The stripe lock arbitrates against
// finalization, so each caller still resolves exactly once.
func (m *Manager) cancelScopeHIT(hitID string, sc *Scope, cause error) {
	s := m.flights.stripeFor(hitID)
	s.mu.Lock()
	fl, ok := s.flights[hitID]
	idx, live := -1, 0
	for i := 0; ok && i < len(fl.shares); i++ {
		if fl.shares[i].detached {
			continue
		}
		live++
		if fl.shares[i].scope == sc {
			idx = i
		}
	}
	if idx < 0 {
		// Not in flight, or the scope's share already detached: nothing
		// left to withdraw.
		s.mu.Unlock()
		return
	}
	// The refund and its trace record are computed under the stripe lock
	// (a racing extension could otherwise append to extSpans mid-read);
	// the marketplace, ledgers and callbacks are only touched after
	// release.
	sh := &fl.shares[idx]
	refund := unconsumed(sh.cost, fl.assign, fl.received)
	expire := live == 1
	var gone []pendingItem
	if expire {
		delete(s.flights, hitID)
	} else {
		// Detach: the consumed remainder stays on sh.cost so a later full
		// expiry cannot refund it again.
		for _, it := range fl.items {
			if it.scope == sc {
				gone = append(gone, it)
			}
		}
		sh.detached = true
		sh.cost -= refund
	}
	m.traceHITCanceled(fl, refund, expire)
	s.mu.Unlock()
	if expire {
		m.market.Dispose(hitID)
	}
	if refund > 0 {
		m.account.Refund(refund)
		sc.refund(refund)
	}
	if !expire {
		failItems(gone, cause)
		return
	}
	fl.fail(cause)
	m.retire(fl)
}

// takeUnconsumed withdraws, from each live share, the charge for
// assignment slots that will never complete — a HIT retired short after
// terminal assignment failures — and returns what each share's scope
// and the account are owed back, as a cancel refunds, so the manager's
// spend matches what the backend paid. Detached shares were refunded
// their unconsumed slots when they detached. Stripe lock held.
func (fl *flight) takeUnconsumed() (refunds []hitShare, total budget.Cents) {
	for i := range fl.shares {
		sh := &fl.shares[i]
		if sh.detached {
			continue
		}
		if r := unconsumed(sh.cost, fl.assign, fl.received); r > 0 {
			sh.cost -= r
			refunds = append(refunds, hitShare{scope: sh.scope, cost: r})
			total += r
		}
	}
	return refunds, total
}

// unconsumed is the slice of a share's cost covering assignments that
// have not completed: cost × (assignments − received) ∕ assignments,
// floored. Account and scope both refund exactly this, so the two
// ledgers move in lockstep and a share can never refund more than it
// was charged.
func unconsumed(cost budget.Cents, assignments, received int) budget.Cents {
	if assignments <= 0 || received >= assignments {
		return 0
	}
	if received <= 0 {
		return cost
	}
	return cost * budget.Cents(assignments-received) / budget.Cents(assignments)
}

// Inflight reports posted HITs of every kind that have not collected
// all their assignments.
func (m *Manager) Inflight() int {
	n := 0
	for i := range m.flights.stripes {
		s := &m.flights.stripes[i]
		s.mu.Lock()
		n += len(s.flights)
		s.mu.Unlock()
	}
	return n
}
