package taskmgr

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// mixedOracle answers comparison tasks by item score and every other
// task (filters, grid pairs) by whether the first argument is a cat.
var mixedOracle = crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
	if strings.EqualFold(task, rankDef().Name) {
		return scoreOracle(task, args)
	}
	return catOracle(task, args)
})

func dogDef() *qlang.TaskDef {
	def, err := qlang.ParseTaskDef(`
TASK isDog(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a dog? %s", photo
  Response: YesNo
`)
	if err != nil {
		panic(err)
	}
	return def
}

func gridItems(prefix string, n int) []JoinItem {
	out := make([]JoinItem, n)
	for i := range out {
		key := fmt.Sprintf("%s-cat-%d", prefix, i)
		out[i] = JoinItem{Key: key, Args: []relation.Value{relation.NewImage(key)}}
	}
	return out
}

// callbacks counts how often each registered callback fires.
type callbacks struct {
	mu    sync.Mutex
	fired map[string]int
	errs  int
}

func (c *callbacks) hit(key string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired == nil {
		c.fired = make(map[string]int)
	}
	c.fired[key]++
	if err != nil {
		c.errs++
	}
}

func (c *callbacks) outcome(key string) func(Outcome) {
	return func(o Outcome) { c.hit(key, o.Err) }
}

func (c *callbacks) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.fired {
		n += k
	}
	return n
}

// seriesSum adds up the samples of one metric family whose labels
// contain every fragment (e.g. `scope="tenant"`).
func seriesSum(t *testing.T, reg *obs.Registry, name string, frags ...string) int64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var sum int64
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		ok := true
		for _, f := range frags {
			ok = ok && strings.Contains(line, f)
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// onlyFlight returns the single in-flight record and its received count
// (nil when nothing is in flight).
func onlyFlight(m *Manager) (*flight, int) {
	for i := range m.flights.stripes {
		s := &m.flights.stripes[i]
		s.mu.Lock()
		for _, fl := range s.flights {
			received := fl.received
			s.mu.Unlock()
			return fl, received
		}
		s.mu.Unlock()
	}
	return nil, 0
}

// Inflight counts every HIT kind: a grid and a comparison HIT are both
// in flight until they complete.
func TestInflightCountsGridAndComparisonHITs(t *testing.T) {
	m, clock := newRig(t, mixedOracle, crowd.Config{}, 0)
	var cb callbacks
	m.JoinBlockIn(nil, joinDef(), gridItems("l", 2), gridItems("r", 2), func(key string, o Outcome) { cb.hit(key, o.Err) })
	m.RankBlockIn(nil, rankDef(), rankItemsN(3), func(_ []Ranking, err error) { cb.hit("rank", err) })
	if got := m.Inflight(); got != 2 {
		t.Fatalf("Inflight() = %d with a grid and a comparison HIT posted, want 2", got)
	}
	runUntil(t, clock, func() bool { return cb.total() == 5 })
	if got := m.Inflight(); got != 0 {
		t.Fatalf("Inflight() = %d after both HITs completed, want 0", got)
	}
}

// A labeled scope's cost series sums to its spend whatever HIT kinds it
// ran: a filter batch, a join grid and a comparison HIT.
func TestScopeCostSeriesCoversEveryHITKind(t *testing.T) {
	m, clock := newRig(t, mixedOracle, crowd.Config{}, 0)
	tr := obs.New(clock.Now, obs.NewRegistry())
	m.SetObs(tr)
	sc := m.NewScope()
	sc.SetLabel("tenant")
	var cb callbacks
	m.Submit(Request{Def: filterDef(), Args: []relation.Value{relation.NewImage("cat-a")}, Scope: sc, Done: cb.outcome("filter")})
	m.FlushAll()
	m.JoinBlockIn(sc, joinDef(), gridItems("l", 2), gridItems("r", 3), func(key string, o Outcome) { cb.hit(key, o.Err) })
	m.RankBlockIn(sc, rankDef(), rankItemsN(4), func(_ []Ranking, err error) { cb.hit("rank", err) })
	runUntil(t, clock, func() bool { return cb.total() == 1+6+1 })
	if sc.Spent() == 0 {
		t.Fatal("scope spent nothing")
	}
	if got := seriesSum(t, tr.Registry(), obs.MetricCostCents, `scope="tenant"`); got != int64(sc.Spent()) {
		t.Fatalf("scope-labeled cost series sums to %d, scope spent %v", got, sc.Spent())
	}
}

// A fully cached grid rerun posts nothing and counts one cache hit per
// pair served, like Submit does.
func TestGridCacheHitsCounted(t *testing.T) {
	m, clock := newRig(t, mixedOracle, crowd.Config{}, 0)
	tr := obs.New(clock.Now, obs.NewRegistry())
	m.SetObs(tr)
	def := joinDef()
	left, right := gridItems("l", 2), gridItems("r", 3)
	var cb callbacks
	done := func(key string, o Outcome) { cb.hit(key, o.Err) }
	m.JoinBlockIn(nil, def, left, right, done)
	runUntil(t, clock, func() bool { return cb.total() == 6 })
	posted := m.StatsFor(def.Name).HITsPosted
	m.JoinBlockIn(nil, def, left, right, done)
	if cb.total() != 12 {
		t.Fatalf("cached rerun resolved %d of 6 pairs synchronously", cb.total()-6)
	}
	if got := m.StatsFor(def.Name).HITsPosted; got != posted {
		t.Fatalf("cached rerun posted %d HITs", got-posted)
	}
	if got := seriesSum(t, tr.Registry(), obs.MetricCacheHits, fmt.Sprintf("task=%q", def.Name)); got != 6 {
		t.Fatalf("cache-hit counter = %d after serving 6 cached pairs, want 6", got)
	}
}

// ledgerKind posts exactly one HIT of one kind for the given scopes and
// returns how many callbacks it registered.
type ledgerKind struct {
	name   string
	scopes int
	submit func(m *Manager, scopes []*Scope, cb *callbacks) int
}

var ledgerKinds = []ledgerKind{
	{"batch", 1, func(m *Manager, sc []*Scope, cb *callbacks) int {
		for i := 0; i < 3; i++ {
			key := fmt.Sprintf("cat-%d", i)
			m.Submit(Request{Def: filterDef(), Args: []relation.Value{relation.NewImage(key)}, Scope: sc[0], Done: cb.outcome(key)})
		}
		return 3
	}},
	{"shared batch", 2, func(m *Manager, sc []*Scope, cb *callbacks) int {
		for i, s := range sc {
			s.SetShared(true)
			key := fmt.Sprintf("cat-%d", i)
			m.Submit(Request{Def: filterDef(), Args: []relation.Value{relation.NewImage(key)}, Scope: s, Done: cb.outcome(key)})
		}
		return 2
	}},
	{"grouped", 1, func(m *Manager, sc []*Scope, cb *callbacks) int {
		args := []relation.Value{relation.NewImage("cat-0")}
		if err := m.SubmitGroup([]Request{
			{Def: filterDef(), Args: args, Scope: sc[0], Done: cb.outcome("cat")},
			{Def: dogDef(), Args: args, Scope: sc[0], Done: cb.outcome("dog")},
		}); err != nil {
			panic(err)
		}
		return 2
	}},
	{"grid", 1, func(m *Manager, sc []*Scope, cb *callbacks) int {
		m.JoinBlockIn(sc[0], joinDef(), gridItems("l", 2), gridItems("r", 2), func(key string, o Outcome) { cb.hit(key, o.Err) })
		return 4
	}},
	{"comparison", 1, func(m *Manager, sc []*Scope, cb *callbacks) int {
		m.RankBlockIn(sc[0], rankDef(), rankItemsN(3), func(_ []Ranking, err error) { cb.hit("rank", err) })
		return 1
	}},
}

// Ledger reconciliation for every HIT kind and every way a HIT ends:
// account spend equals the sum of scope spends, each refund equals the
// unconsumed slots times the reward, every callback fires exactly once,
// nothing stays in flight and no trace span is left open.
func TestLedgerReconcilesEveryHITKind(t *testing.T) {
	const (
		reward = 2
		assign = 3
	)
	outcomes := []string{"completes", "scope cancel mid-HIT", "terminal assignment failure",
		"partial assignment failure", "post failure"}
	for _, kind := range ledgerKinds {
		for _, outcome := range outcomes {
			t.Run(kind.name+"/"+outcome, func(t *testing.T) {
				m, clock := newRig(t, mixedOracle, crowd.Config{Workers: 3, Seed: 5}, 0)
				tr := obs.New(clock.Now, obs.NewRegistry())
				m.SetObs(tr)
				pol := Policy{Assignments: assign, BatchSize: 3, PriceCents: reward, Linger: time.Hour}
				if kind.name == "shared batch" {
					pol.BatchSize = 2
				}
				for _, def := range []*qlang.TaskDef{filterDef(), dogDef(), joinDef(), rankDef()} {
					m.SetPolicy(def.Name, pol)
				}
				scopes := make([]*Scope, kind.scopes)
				roots := make([]*obs.Span, kind.scopes)
				for i := range scopes {
					scopes[i] = m.NewScope()
					roots[i] = tr.StartRoot(obs.KindQuery, fmt.Sprintf("q%d", i))
					scopes[i].SetSpan(roots[i])
				}
				switch outcome {
				case "terminal assignment failure":
					m.market.SetWorkerFilter(func(string) bool { return false })
				case "partial assignment failure":
					// Only the first claim is eligible: one assignment
					// completes, the others fail terminally.
					var claims atomic.Int64
					m.market.SetWorkerFilter(func(string) bool { return claims.Add(1) == 1 })
				case "post failure":
					hook := func(*hit.HIT) error { return errors.New("injected outage") }
					m.postHook.Store(&hook)
				}

				var cb callbacks
				want := kind.submit(m, scopes, &cb)
				const cost = budget.Cents(reward * assign)
				var refund, wantRefund budget.Cents
				switch outcome {
				case "completes":
					runUntil(t, clock, func() bool { return cb.total() == want })
					if cb.errs != 0 {
						t.Fatalf("%d callbacks failed", cb.errs)
					}
				case "scope cancel mid-HIT":
					received := 0
					for received == 0 {
						fl, r := onlyFlight(m)
						if fl == nil {
							t.Fatal("HIT left flight before the cancel")
						}
						if received = r; received == 0 && !clock.Step() {
							t.Fatal("clock drained with no assignment received")
						}
					}
					before := m.Account().Spent()
					for _, sc := range scopes {
						sc.Cancel(nil)
					}
					refund = before - m.Account().Spent()
					wantRefund = budget.Cents((assign - received) * reward)
				case "terminal assignment failure":
					runUntil(t, clock, func() bool { return cb.total() == want })
					if cb.errs != want {
						t.Fatalf("%d of %d callbacks failed, want all", cb.errs, want)
					}
					refund = cost - m.Account().Spent()
					wantRefund = cost
				case "partial assignment failure":
					runUntil(t, clock, func() bool { return cb.total() == want })
					if cb.errs != 0 {
						t.Fatalf("%d callbacks failed; one assignment arrived", cb.errs)
					}
					refund = cost - m.Account().Spent()
					wantRefund = (assign - 1) * reward
				case "post failure":
					refund = cost - m.Account().Spent()
					wantRefund = cost
				}
				runUntil(t, clock, func() bool { return m.Inflight() == 0 && clock.Pending() == 0 })

				if refund != wantRefund {
					t.Errorf("refund = %v, want %v (unconsumed slots × %d¢)", refund, wantRefund, reward)
				}
				var sum budget.Cents
				for _, sc := range scopes {
					sum += sc.Spent()
				}
				if got := m.Account().Spent(); got != sum || got != cost-refund {
					t.Errorf("ledger: account %v, scopes sum %v, want both %v", got, sum, cost-refund)
				}
				if got, paid := m.Account().Spent(), m.market.Stats().SpentCents; got != paid {
					t.Errorf("manager spent %v, backend paid %v", got, paid)
				}
				if cb.total() != want || len(cb.fired) != want {
					t.Errorf("callbacks: %d fired over %d keys, want %d exactly once each", cb.total(), len(cb.fired), want)
				}
				if got := m.Inflight(); got != 0 {
					t.Errorf("Inflight() = %d at the end", got)
				}
				if got := tr.Registry().Gauge(obs.MetricInflightHITs).Value(); got != 0 {
					t.Errorf("in-flight gauge = %d at the end", got)
				}
				for _, root := range roots {
					root.End()
					if open := tr.OpenSpans(root); open != 0 {
						t.Errorf("%d spans left open", open)
					}
				}
			})
		}
	}
}
