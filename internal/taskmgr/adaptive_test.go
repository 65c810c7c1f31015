package taskmgr

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/model"
	"repro/internal/mturk"
	"repro/internal/relation"
)

// submitMany submits n distinct filter items and pumps until all resolve,
// returning the outcomes in submission order.
func submitMany(t *testing.T, m *Manager, clock *mturk.Clock, n int) []Outcome {
	t.Helper()
	def := filterDef()
	outs := make([]Outcome, n)
	var mu sync.Mutex
	done := 0
	for i := 0; i < n; i++ {
		i := i
		img := fmt.Sprintf("cat-%03d.png", i)
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(img)},
			Done: func(o Outcome) { mu.Lock(); outs[i] = o; done++; mu.Unlock() }})
	}
	m.FlushAll()
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == n })
	return outs
}

// A confident crowd answering through the EM aggregator stops at the
// posting floor: two agreeing strangers under the default prior reach a
// 0.9 posterior, past the 0.85 stopping target, so the third assignment
// of the default policy is never bought.
func TestAdaptiveStopsAtFloorWhenConfident(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.9999, SkillStd: 1e-9}, 0)
	m.SetInference("em", 2, 0)
	out := submitAndWait(t, m, clock, filterDef(), relation.NewImage("cat-1.png"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Value.Truthy() {
		t.Fatalf("cat not recognized: %+v", out)
	}
	if len(out.Answers) != 2 {
		t.Fatalf("answers = %d, want 2 (adaptive floor)", len(out.Answers))
	}
	if spent := m.Account().Spent(); spent != 2 {
		t.Fatalf("spent = %v, want 2 (floor × 1¢)", spent)
	}
	is := m.InferenceStats()
	if is.Method != "em" || is.AdaptiveHITs != 1 || is.Extensions != 0 {
		t.Fatalf("inference stats = %+v", is)
	}
	if is.AssignmentsUsed != 2 || is.AssignmentsCap != 3 || is.SavedCents != 1 {
		t.Fatalf("inference stats = %+v (want 2 used of cap 3, 1¢ saved)", is)
	}
}

// A coin-flip crowd leaves split votes unsure, so the adaptive loop buys
// extensions — never past the policy cap — and every assignment actually
// bought is paid for exactly once (cost == reward × assignments holds
// through every extension).
func TestAdaptiveExtendsWhileUnsure(t *testing.T) {
	const n = 12
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.5, SkillStd: 1e-9}, 0)
	m.SetInference("em", 2, 0)
	outs := submitMany(t, m, clock, n)
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("item %d: %v", i, out.Err)
		}
	}
	is := m.InferenceStats()
	if is.AdaptiveHITs != n {
		t.Fatalf("adaptive HITs = %d, want %d", is.AdaptiveHITs, n)
	}
	if is.Extensions == 0 {
		t.Fatal("coin-flip crowd never forced an extension; pick another seed")
	}
	if is.AssignmentsUsed != 2*n+is.Extensions {
		t.Fatalf("assignments used = %d, want floor %d + %d extensions",
			is.AssignmentsUsed, 2*n, is.Extensions)
	}
	if is.AssignmentsUsed > 3*n {
		t.Fatalf("assignments used = %d exceeds cap %d", is.AssignmentsUsed, 3*n)
	}
	if spent := m.Account().Spent(); spent != budget.Cents(is.AssignmentsUsed) {
		t.Fatalf("spent %v ≠ %d assignments bought", spent, is.AssignmentsUsed)
	}
}

// Satellite: budget exhausted mid-extension. The account covers exactly
// the posting floors, so every extension attempt fails at the account —
// each unsure HIT must finalize at its current posterior (not error, not
// deadlock) and the ledger must stop exactly at the limit.
func TestAdaptiveBudgetExhaustedFinalizesAtPosterior(t *testing.T) {
	const n = 12
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.5, SkillStd: 1e-9}, 2*n)
	m.SetInference("em", 2, 0)
	outs := submitMany(t, m, clock, n)
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("item %d: exhausted budget must finalize, not error: %v", i, out.Err)
		}
	}
	is := m.InferenceStats()
	if is.Extensions != 0 {
		t.Fatalf("extensions = %d with an exhausted account", is.Extensions)
	}
	if is.AssignmentsUsed != 2*n {
		t.Fatalf("assignments used = %d, want exactly the floors (%d)", is.AssignmentsUsed, 2*n)
	}
	if spent := m.Account().Spent(); spent != 2*n {
		t.Fatalf("spent = %v, want the full %d¢ limit and not a cent more", spent, 2*n)
	}
}

// noExtend hides the sim backend's Extender so backend.Extend reports
// ErrExtendUnsupported, like the LLM worker crowd.
type noExtend struct {
	backend.Backend
}

// Satellite: a backend that rejects extensions. The first unsure HIT's
// failed extension must roll its charge back, finalize at the current
// posterior, and flip the manager to full-cap posting for everything
// after.
func TestAdaptiveExtendUnsupportedFallsBackToCap(t *testing.T) {
	clock := mturk.NewClock()
	pool := crowd.NewPool(crowd.Config{
		MeanSkill: 0.5, SkillStd: 1e-9, Seed: 1,
		SpamFraction: 1e-12, AbandonRate: 1e-12,
	}, catOracle)
	market := mturk.NewMarketplace(clock, pool)
	m := NewWithBackend(noExtend{backend.NewSim(market)}, cache.New(), model.NewRegistry(), budget.NewAccount(0))
	m.SetInference("em", 2, 0)

	outs := submitMany(t, m, clock, 12)
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("item %d: rejected extension must finalize, not error: %v", i, out.Err)
		}
	}
	is := m.InferenceStats()
	if is.ExtendFailures == 0 {
		t.Fatal("no extension was ever attempted; pick another seed")
	}
	if is.Extensions != 0 {
		t.Fatalf("extensions = %d through a backend without an Extender", is.Extensions)
	}
	if !m.extendBroken.Load() {
		t.Fatal("extend failure should flip the manager to full-cap posting")
	}
	// Everything submitted after the flip posts at the full cap again —
	// the seed majority path, three answers per item.
	out := submitAndWait(t, m, clock, filterDef(), relation.NewImage("late-cat.png"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Answers) != 3 {
		t.Fatalf("post-failure answers = %d, want the full cap 3", len(out.Answers))
	}
}

// Satellite: an extension racing a scope cancel. When the cancel retires
// the HIT before the extension's bookkeeping commits, the whole charge
// comes straight back to both ledgers; when the cancel lands after the
// commit, the adaptive invariant cost == reward × assignments makes the
// normal pro-rata path refund exactly the one unconsumed extension slot.
func TestAdaptiveExtendChargeRefundedWhenCancelRaces(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{MeanSkill: 0.9999}, 0)
	def := filterDef()
	sc := m.NewScope()
	sc.SetBudget(50)

	// The HIT is absent from its stripe: the cancel already retired it.
	fl := &flight{
		hit:      &hit.HIT{ID: "hit-gone", RewardCents: 1},
		reward:   1,
		state:    m.state(def.Name, def),
		shares:   []hitShare{{scope: sc}},
		cost:     2,
		assign:   2,
		needed:   2,
		received: 2,
		adaptive: true,
		capA:     3,
	}
	s := m.flights.stripeFor("hit-gone")
	m.extendInflight(s, "hit-gone", fl)
	if spent := m.Account().Spent(); spent != 0 {
		t.Fatalf("account spent = %v after a raced extension; charge must come back in full", spent)
	}
	if spent := sc.Spent(); spent != 0 {
		t.Fatalf("scope spent = %v after a raced extension; charge must come back in full", spent)
	}
	if fl.assign != 2 || fl.cost != 2 {
		t.Fatalf("raced extension mutated the retired HIT: assign=%d cost=%v", fl.assign, fl.cost)
	}

	// Cancel after the commit: received 2 of 3 slots consumed, cost 3¢ —
	// the pro-rata refund is exactly the 1¢ extension slot.
	if got := unconsumed(3, 3, 2); got != 1 {
		t.Fatalf("unconsumed(3¢, 3 slots, 2 done) = %v, want exactly the 1¢ extension slot", got)
	}
}
