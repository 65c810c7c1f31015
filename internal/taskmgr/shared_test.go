package taskmgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/qerr"
	"repro/internal/relation"
)

func TestSplitCostLargestRemainder(t *testing.T) {
	cases := []struct {
		total  budget.Cents
		counts []int
		want   []budget.Cents
	}{
		{4, []int{2, 2}, []budget.Cents{2, 2}},
		{3, []int{2, 1, 1}, []budget.Cents{1, 1, 1}},
		{5, []int{2, 1, 1}, []budget.Cents{3, 1, 1}},
		{1, []int{1, 1, 1}, []budget.Cents{1, 0, 0}},
		{10, []int{3, 3, 3}, []budget.Cents{4, 3, 3}},
		{7, []int{5}, []budget.Cents{7}},
		{0, []int{1, 2}, []budget.Cents{0, 0}},
	}
	for _, c := range cases {
		got := splitCost(c.total, c.counts)
		sum := budget.Cents(0)
		for i, g := range got {
			sum += g
			if g != c.want[i] {
				t.Errorf("splitCost(%d, %v) = %v, want %v", c.total, c.counts, got, c.want)
				break
			}
		}
		if sum != c.total {
			t.Errorf("splitCost(%d, %v) sums to %d", c.total, c.counts, sum)
		}
	}
}

// Two sharing scopes with matching policies fill one HIT together, and
// the cost splits across their budgets by item count.
func TestSharedScopesCoBatchOneHIT(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 4, PriceCents: 2, Linger: time.Hour, UseCache: true})
	a, b := m.NewScope(), m.NewScope()
	a.SetShared(true)
	b.SetShared(true)
	var outs atomic.Int64
	for i := 0; i < 4; i++ {
		scope := a
		if i%2 == 1 {
			scope = b
		}
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString(relationKey(i))}, Scope: scope,
			Done: func(Outcome) { outs.Add(1) }})
	}
	runUntil(t, clock, func() bool { return outs.Load() == 4 })
	if st := m.StatsFor(def.Name); st.HITsPosted != 1 {
		t.Fatalf("sharing scopes posted %d HITs, want 1", st.HITsPosted)
	}
	// 1 assignment × 2¢, two items each: 1¢ per scope.
	if a.Spent() != 1 || b.Spent() != 1 {
		t.Fatalf("cost split = %v/%v, want 1/1", a.Spent(), b.Spent())
	}
	if got := m.Account().Spent(); got != 2 {
		t.Fatalf("account spent %v, want 2", got)
	}
	if sh := m.Sharing(); sh.SharedHITs != 1 || sh.CoBatchedItems != 4 || sh.HITsSaved != 1 {
		t.Fatalf("sharing counters = %+v", sh)
	}
}

// A non-sharing scope must never be merged into a shared HIT, even when
// sharing neighbors are pooled on the same task.
func TestUnsharedScopeStaysIsolatedFromPool(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 2, PriceCents: 1, Linger: time.Hour, UseCache: true})
	a, b, c := m.NewScope(), m.NewScope(), m.NewScope()
	a.SetShared(true)
	b.SetShared(true)
	var outs atomic.Int64
	done := func(Outcome) { outs.Add(1) }
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a")}, Scope: a, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-c")}, Scope: c, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b")}, Scope: b, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-d")}, Scope: c, Done: done})
	runUntil(t, clock, func() bool { return outs.Load() == 4 })
	// Shared pool (a+b) fills one HIT; c fills its own.
	if st := m.StatsFor(def.Name); st.HITsPosted != 2 {
		t.Fatalf("posted %d HITs, want 2 (one shared, one isolated)", st.HITsPosted)
	}
	if sh := m.Sharing(); sh.SharedHITs != 1 {
		t.Fatalf("sharing counters = %+v", sh)
	}
}

// Scopes whose effective posting policies differ are incompatible and
// never co-batch, sharing opt-in or not.
func TestSharedScopesWithDifferentPoliciesDontMerge(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 2, PriceCents: 1, Linger: time.Millisecond, UseCache: true})
	a, b := m.NewScope(), m.NewScope()
	a.SetShared(true)
	b.SetShared(true)
	b.SetPolicy(def.Name, Policy{Assignments: 2, BatchSize: 2, PriceCents: 1, Linger: time.Millisecond, UseCache: true})
	var outs atomic.Int64
	done := func(Outcome) { outs.Add(1) }
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a")}, Scope: a, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b")}, Scope: b, Done: done})
	m.Flush(def.Name)
	runUntil(t, clock, func() bool { return outs.Load() == 2 })
	if st := m.StatsFor(def.Name); st.HITsPosted != 2 {
		t.Fatalf("incompatible policies co-batched: %d HITs", st.HITsPosted)
	}
	if sh := m.Sharing(); sh.SharedHITs != 0 {
		t.Fatalf("sharing counters = %+v", sh)
	}
}

// Canceling one participant of a shared HIT detaches its items and
// refunds its share; the HIT keeps running for the other scope and the
// ledgers reconcile.
func TestSharedHITSurvivesOneScopeCancel(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{Workers: 1}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 2, BatchSize: 2, PriceCents: 2, Linger: time.Hour, UseCache: true})
	a, b := m.NewScope(), m.NewScope()
	a.SetShared(true)
	b.SetShared(true)
	var aOut, bOut atomic.Pointer[Outcome]
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a")}, Scope: a,
		Done: func(o Outcome) { aOut.Store(&o) }})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b")}, Scope: b,
		Done: func(o Outcome) { bOut.Store(&o) }})
	// 2 assignments × 2¢ = 4¢, split 2/2.
	if a.Spent() != 2 || b.Spent() != 2 || m.Account().Spent() != 4 {
		t.Fatalf("at post: a=%v b=%v account=%v", a.Spent(), b.Spent(), m.Account().Spent())
	}
	a.Cancel(nil)
	if out := aOut.Load(); out == nil || !errors.Is(out.Err, qerr.ErrCanceled) {
		t.Fatalf("canceled scope's item: %+v", out)
	}
	// No assignment done yet: a's whole share refunds; b's stays.
	if a.Spent() != 0 {
		t.Fatalf("a refunded %v short", a.Spent())
	}
	if got := m.Account().Spent(); got != 2 {
		t.Fatalf("account after detach = %v, want b's 2", got)
	}
	if m.Inflight() != 1 {
		t.Fatalf("shared HIT expired by one participant's cancel (inflight=%d)", m.Inflight())
	}
	runUntil(t, clock, func() bool { return bOut.Load() != nil })
	if out := bOut.Load(); out.Err != nil || len(out.Answers) != 2 {
		t.Fatalf("survivor outcome: %+v", out)
	}
	if a.Spent()+b.Spent() != m.Account().Spent() {
		t.Fatalf("ledger drift: scopes %v+%v, account %v", a.Spent(), b.Spent(), m.Account().Spent())
	}
}

// When the last live participant cancels too, the shared HIT fully
// expires and every cent returns.
func TestSharedHITLastScopeCancelExpires(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{Workers: 1}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 2, BatchSize: 2, PriceCents: 2, Linger: time.Hour, UseCache: true})
	a, b := m.NewScope(), m.NewScope()
	a.SetShared(true)
	b.SetShared(true)
	var outs atomic.Int64
	done := func(Outcome) { outs.Add(1) }
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a")}, Scope: a, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b")}, Scope: b, Done: done})
	a.Cancel(nil)
	b.Cancel(nil)
	if outs.Load() != 2 {
		t.Fatalf("resolved %d of 2 items", outs.Load())
	}
	if m.Inflight() != 0 {
		t.Fatalf("HIT not expired: inflight=%d", m.Inflight())
	}
	if a.Spent() != 0 || b.Spent() != 0 || m.Account().Spent() != 0 {
		t.Fatalf("money stuck: a=%v b=%v account=%v", a.Spent(), b.Spent(), m.Account().Spent())
	}
}

// Post failure on a batch spanning scopes refunds each scope exactly
// its share — no double refund, account exactly zero.
func TestPostFailureRefundsPerScope(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 3, PriceCents: 5, Linger: time.Hour, UseCache: true})
	hook := func(h *hit.HIT) error { return fmt.Errorf("injected outage") }
	m.postHook.Store(&hook)
	a, b := m.NewScope(), m.NewScope()
	a.SetShared(true)
	b.SetShared(true)
	var failed atomic.Int64
	done := func(o Outcome) {
		if o.Err != nil {
			failed.Add(1)
		}
	}
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a")}, Scope: a, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b")}, Scope: a, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-c")}, Scope: b, Done: done})
	if failed.Load() != 3 {
		t.Fatalf("want 3 post-failure outcomes, got %d", failed.Load())
	}
	if a.Spent() != 0 || b.Spent() != 0 {
		t.Fatalf("scope refunds off: a=%v b=%v", a.Spent(), b.Spent())
	}
	if got := m.Account().Spent(); got != 0 {
		t.Fatalf("account after refund = %v (double-refund would go negative, loss positive)", got)
	}
	if m.Inflight() != 0 {
		t.Fatalf("failed post left inflight state: %d", m.Inflight())
	}
}

// One scope's budget failing mid-charge drops only that scope's items;
// the others re-split and still post.
func TestSharedChargeRetriesWithoutBrokeScope(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 2, PriceCents: 4, Linger: time.Hour, UseCache: true})
	rich, broke := m.NewScope(), m.NewScope()
	rich.SetShared(true)
	broke.SetShared(true)
	broke.SetBudget(1) // cannot cover a 2¢ share
	var richOut, brokeOut atomic.Pointer[Outcome]
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a")}, Scope: rich,
		Done: func(o Outcome) { richOut.Store(&o) }})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b")}, Scope: broke,
		Done: func(o Outcome) { brokeOut.Store(&o) }})
	if out := brokeOut.Load(); out == nil || !errors.Is(out.Err, budget.ErrExhausted) {
		t.Fatalf("broke scope: want ErrExhausted, got %+v", out)
	}
	runUntil(t, clock, func() bool { return richOut.Load() != nil })
	if out := richOut.Load(); out.Err != nil {
		t.Fatalf("rich scope should still be served: %v", out.Err)
	}
	// The HIT price does not shrink: rich pays all 4¢.
	if rich.Spent() != 4 || broke.Spent() != 0 || m.Account().Spent() != 4 {
		t.Fatalf("ledger: rich=%v broke=%v account=%v", rich.Spent(), broke.Spent(), m.Account().Spent())
	}
}

// Items whose scope canceled between cut and post are dropped (resolved
// with the cause) instead of being posted as sunk-cost questions; the
// live scope's items still run.
func TestPostBatchDropsCanceledScopeItems(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 10, PriceCents: 1, Linger: time.Hour, UseCache: true})
	a, b := m.NewScope(), m.NewScope()
	a.SetShared(true)
	b.SetShared(true)
	st := m.state(def.Name, def)
	var aOut, bOut atomic.Pointer[Outcome]
	mk := func(sc *Scope, key string, out *atomic.Pointer[Outcome]) pendingItem {
		return pendingItem{key: m.newKey(), args: []relation.Value{relation.NewString(key)},
			def: def, scope: sc, shared: true, done: func(o Outcome) { out.Store(&o) }}
	}
	batch := []pendingItem{mk(a, "cat-a", &aOut), mk(b, "cat-b", &bOut)}
	// Cancel a after the batch was cut but before it posts (a linger
	// flush or admission queue can hold it across that window).
	a.Cancel(nil)
	m.postBatches(st, [][]pendingItem{batch})
	if out := aOut.Load(); out == nil || !errors.Is(out.Err, qerr.ErrCanceled) {
		t.Fatalf("canceled scope's item posted anyway: %+v", out)
	}
	runUntil(t, clock, func() bool { return bOut.Load() != nil })
	if out := bOut.Load(); out.Err != nil {
		t.Fatalf("live scope's item failed: %v", out.Err)
	}
	if stats := m.StatsFor(def.Name); stats.QuestionsAsked != 1 {
		t.Fatalf("asked %d questions, want 1 (canceled item dropped)", stats.QuestionsAsked)
	}
	if a.Spent() != 0 {
		t.Fatalf("canceled scope charged %v", a.Spent())
	}
}

// Regression for linger starvation: a threshold cut that produces a
// full batch for one group used to strand another group's leftover
// forever when no linger timer was armed (Linger 0 policies). The
// leftovers must post too.
func TestCutLeftoverWithoutLingerStillPosts(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 4, PriceCents: 1, Linger: 0, UseCache: true})
	x, y := m.NewScope(), m.NewScope()
	x.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 2, PriceCents: 1, Linger: 0, UseCache: true})
	y.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 4, PriceCents: 1, Linger: 0, UseCache: true})
	var outs atomic.Int64
	done := func(Outcome) { outs.Add(1) }
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-x1")}, Scope: x, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-y1")}, Scope: y, Done: done})
	// x's second item fills x's batch of 2; y1 is the leftover that
	// used to starve (no timer, threshold branch satisfied by the cut).
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-x2")}, Scope: x, Done: done})
	runUntil(t, clock, func() bool { return outs.Load() == 3 })
	if m.Pending() != 0 {
		t.Fatalf("leftover stranded in pending: %d", m.Pending())
	}
}

// The same scenario with a positive Linger on the leftover's policy
// must arm a timer instead of force-posting a 1-item HIT.
func TestCutLeftoverRearmsLinger(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 4, PriceCents: 1, Linger: time.Minute, UseCache: true})
	x, y := m.NewScope(), m.NewScope()
	x.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 2, PriceCents: 1, Linger: 0, UseCache: true})
	var outs atomic.Int64
	done := func(Outcome) { outs.Add(1) }
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-x1")}, Scope: x, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-y1")}, Scope: y, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-x2")}, Scope: x, Done: done})
	// x's pair posts; y1 waits for its linger, then posts via the timer.
	runUntil(t, clock, func() bool { return outs.Load() == 3 })
	if got := m.StatsFor(def.Name).HITsPosted; got != 2 {
		t.Fatalf("posted %d HITs, want 2 (pair + lingered leftover)", got)
	}
	_ = clock
}

// FlushScope posts the calling scope's own partials but leaves shared
// partials pooled (with a linger armed) so other queries can fill them.
func TestFlushScopeKeepsSharedPartialsPooled(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 4, PriceCents: 1, Linger: time.Minute, UseCache: true})
	a, b, c := m.NewScope(), m.NewScope(), m.NewScope()
	a.SetShared(true)
	b.SetShared(true)
	var outs atomic.Int64
	done := func(Outcome) { outs.Add(1) }
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a1")}, Scope: a, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a2")}, Scope: a, Done: done})
	m.FlushScope(def.Name, a)
	if m.Pending() != 2 {
		t.Fatalf("shared partials posted by FlushScope: pending=%d", m.Pending())
	}
	// Another sharing query's items complete the batch.
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b1")}, Scope: b, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b2")}, Scope: b, Done: done})
	runUntil(t, clock, func() bool { return outs.Load() == 4 })
	if st := m.StatsFor(def.Name); st.HITsPosted != 1 {
		t.Fatalf("posted %d HITs, want 1 co-batched", st.HITsPosted)
	}
	// A non-shared scope's partial force-cuts like Flush always did.
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-c1")}, Scope: c, Done: done})
	m.FlushScope(def.Name, c)
	runUntil(t, clock, func() bool { return outs.Load() == 5 })
	if m.Pending() != 0 {
		t.Fatalf("own partial not flushed: pending=%d", m.Pending())
	}
}

// With an admission gate of 1 and a single worker, queued batches post
// in priority order first, then weighted fair share, then FIFO.
func TestAdmissionGateOrdersByPriorityThenFairShare(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{Workers: 1}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1, Linger: time.Hour, UseCache: false})
	m.SetAdmission(1)
	warm, hi, loA, loB := m.NewScope(), m.NewScope(), m.NewScope(), m.NewScope()
	hi.SetPriority(1)
	loA.SetWeight(2)
	var mu sync.Mutex
	var order []string
	submit := func(sc *Scope, tag string) {
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-" + tag)}, Scope: sc,
			Done: func(Outcome) {
				mu.Lock()
				order = append(order, tag)
				mu.Unlock()
			}})
	}
	// First submission takes the only slot immediately; the rest queue.
	submit(warm, "first")
	submit(loA, "a1")
	submit(loA, "a2")
	submit(loA, "a3")
	submit(loB, "b1")
	submit(loB, "b2")
	submit(hi, "hi")
	runUntil(t, clock, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 7
	})
	// hi (priority) admits as soon as the slot frees; then loA/loB
	// alternate 2:1 by weight: a1 (0*1 vs 1*2), b1 after loA's credit
	// passes loB's, etc. FIFO breaks exact ties.
	want := []string{"first", "hi", "a1", "b1", "a2", "a3", "b2"}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

// Queued-but-unposted batches are provisionally charged against
// RemainingBudget so concurrent planners cannot over-commit headroom.
func TestQueuedBatchVisibleToRemainingBudget(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{Workers: 1}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 3, Linger: time.Hour, UseCache: false})
	m.SetAdmission(1)
	s := m.NewScope()
	s.SetBudget(100)
	done := func(Outcome) {}
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a")}, Scope: s, Done: done})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b")}, Scope: s, Done: done})
	// First posted (charged 3), second queued (provisional 3).
	rem, ok := s.RemainingBudget()
	if !ok || rem != 94 {
		t.Fatalf("RemainingBudget = %v/%v, want 94 (100 − 3 charged − 3 queued)", rem, ok)
	}
	// Canceling releases the provisional charge and refunds the post.
	s.Cancel(nil)
	rem, _ = s.RemainingBudget()
	if rem != 100 {
		t.Fatalf("after cancel RemainingBudget = %v, want 100", rem)
	}
}

// Scope.Cancel removes the scope's items from the admission queue; a
// co-queued scope's items keep their place and still post.
func TestCancelSweepsAdmissionQueue(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{Workers: 1}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1, Linger: time.Hour, UseCache: false})
	m.SetAdmission(1)
	a, b := m.NewScope(), m.NewScope()
	var aOut, bOut atomic.Pointer[Outcome]
	var first atomic.Pointer[Outcome]
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-0")}, Scope: b,
		Done: func(o Outcome) { first.Store(&o) }})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-a")}, Scope: a,
		Done: func(o Outcome) { aOut.Store(&o) }})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-b")}, Scope: b,
		Done: func(o Outcome) { bOut.Store(&o) }})
	a.Cancel(nil)
	if out := aOut.Load(); out == nil || !errors.Is(out.Err, qerr.ErrCanceled) {
		t.Fatalf("queued item of canceled scope: %+v", out)
	}
	runUntil(t, clock, func() bool { return bOut.Load() != nil })
	if out := bOut.Load(); out.Err != nil {
		t.Fatalf("surviving queued item failed: %v", out.Err)
	}
	if a.Spent() != 0 {
		t.Fatalf("canceled scope charged %v for a never-posted batch", a.Spent())
	}
}

// Ledger reconciliation under churn: injected post failures, budget
// caps, mid-flight cancellations, shared batches, join grids and
// comparison HITs — per-scope spend must sum exactly to the account at
// quiesce. Run with -race in CI.
func TestScopeLedgersReconcileUnderChurn(t *testing.T) {
	m, clock := newRig(t, mixedOracle, crowd.Config{Workers: 4}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 2, BatchSize: 3, PriceCents: 3, Linger: time.Millisecond, UseCache: false})
	m.SetAdmission(2)
	var posts atomic.Int64
	hook := func(h *hit.HIT) error {
		if posts.Add(1)%3 == 0 {
			return fmt.Errorf("injected outage")
		}
		return nil
	}
	m.postHook.Store(&hook)
	const nScopes = 8
	scopes := make([]*Scope, nScopes)
	var outs atomic.Int64
	const perScope = 6 + 4 + 1 // filter items, grid pairs, one ranking
	for i := range scopes {
		scopes[i] = m.NewScope()
		scopes[i].SetShared(i%2 == 0) // half share, half isolated
		if i%3 == 0 {
			scopes[i].SetBudget(10)
		}
	}
	var wg sync.WaitGroup
	for i, sc := range scopes {
		i, sc := i, sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				m.Submit(Request{Def: def,
					Args:  []relation.Value{relation.NewString(fmt.Sprintf("cat-%d-%d", i, j))},
					Scope: sc, Done: func(Outcome) { outs.Add(1) }})
			}
			m.JoinBlockIn(sc, joinDef(), gridItems(fmt.Sprintf("l%d", i), 2), gridItems(fmt.Sprintf("r%d", i), 2),
				func(string, Outcome) { outs.Add(1) })
			m.RankBlockIn(sc, rankDef(), rankItemsN(3), func([]Ranking, error) { outs.Add(1) })
			if i%4 == 1 {
				sc.Cancel(nil) // mid-flight cancellation
			}
		}()
	}
	wg.Wait()
	runUntil(t, clock, func() bool { return outs.Load() == nScopes*perScope })
	runUntil(t, clock, func() bool { return m.Inflight() == 0 && clock.Pending() == 0 })
	var sum budget.Cents
	for _, sc := range scopes {
		sum += sc.Spent()
	}
	if got := m.Account().Spent(); sum != got {
		t.Fatalf("ledger drift: scopes sum %v, account %v", sum, got)
	}
}

// RemainingBudget is read by planners while completions charge the
// scope concurrently; this hammers both sides under -race.
func TestRemainingBudgetConcurrentWithCharges(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{Workers: 4}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1, Linger: time.Millisecond, UseCache: false})
	s := m.NewScope()
	s.SetBudget(1000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rem, ok := s.RemainingBudget(); ok && rem > 1000 {
				t.Errorf("headroom above cap: %v", rem)
				return
			}
			_ = s.Spent()
		}
	}()
	var outs atomic.Int64
	const n = 40
	for i := 0; i < n; i++ {
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString(fmt.Sprintf("cat-%d", i))},
			Scope: s, Done: func(Outcome) { outs.Add(1) }})
	}
	runUntil(t, clock, func() bool { return outs.Load() == n })
	close(stop)
	wg.Wait()
	if s.Spent() != n {
		t.Fatalf("spent %v, want %d", s.Spent(), n)
	}
}
