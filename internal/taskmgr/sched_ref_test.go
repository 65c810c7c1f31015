package taskmgr

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/crowd"
	"repro/internal/relation"
)

// refScheduler is the admission queue as it was before FIFOs: one flat
// queue in enqueue order, a linear scan per take, and the fair-share
// history in a map keyed by scope. It stays only as the reference that
// TestSchedulerMatchesLinearScanReference checks the FIFO scheduler
// against, so it must not be changed to match the scheduler.
type refScheduler struct {
	nextSeq  int64
	queue    []*queuedBatch
	admitted map[*Scope]int64
}

func (s *refScheduler) push(qb *queuedBatch) {
	s.nextSeq++
	qb.seq = s.nextSeq
	s.queue = append(s.queue, qb)
}

func (s *refScheduler) take() *queuedBatch {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		if s.better(s.queue[i], s.queue[best]) {
			best = i
		}
	}
	qb := s.queue[best]
	copy(s.queue[best:], s.queue[best+1:])
	s.queue[len(s.queue)-1] = nil
	s.queue = s.queue[:len(s.queue)-1]
	if s.admitted == nil {
		s.admitted = make(map[*Scope]int64)
	}
	s.admitted[qb.owner]++
	return qb
}

func (s *refScheduler) better(a, b *queuedBatch) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	aw, bw := int64(a.weight), int64(b.weight)
	if aw < 1 {
		aw = 1
	}
	if bw < 1 {
		bw = 1
	}
	aa, ba := s.admitted[a.owner], s.admitted[b.owner]
	if aa*bw != ba*aw {
		return aa*bw < ba*aw
	}
	return a.seq < b.seq
}

func (s *refScheduler) sweep(sc *Scope) []pendingItem {
	var dropped []pendingItem
	kept := s.queue[:0]
	for _, qb := range s.queue {
		rest := qb.batch[:0:0]
		for _, it := range qb.batch {
			if it.scope == sc {
				dropped = append(dropped, it)
			} else {
				rest = append(rest, it)
			}
		}
		qb.batch = rest
		if len(qb.batch) > 0 {
			kept = append(kept, qb)
		}
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
	delete(s.admitted, sc)
	return dropped
}

// The FIFO scheduler takes batches in exactly the reference's order
// under random interleavings of enqueue, retire, sweep (scope cancel)
// and gate changes, over a mix of owners (the nil scope included),
// priorities, fair-share weights and co-batched items.
func TestSchedulerMatchesLinearScanReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scopes := []*Scope{nil}
		for i := 0; i < 1+rng.Intn(6); i++ {
			scopes = append(scopes, &Scope{})
		}
		pick := func() *Scope { return scopes[rng.Intn(len(scopes))] }
		var s scheduler
		var ref refScheduler
		max, inflight := rng.Intn(4), 0
		var taken []string
		drain := func(step int) {
			for s.queued > 0 && (max <= 0 || inflight < max) {
				got, want := s.takeLocked(), ref.take()
				s.noteAdmittedLocked(got.owner)
				if got.seq != want.seq || len(got.batch) != len(want.batch) {
					t.Fatalf("seed %d step %d: took batch %d (%d items), reference took %d (%d items); order so far %v",
						seed, step, got.seq, len(got.batch), want.seq, len(want.batch), taken)
				}
				taken = append(taken, fmt.Sprint(got.seq))
				inflight++
			}
			if len(ref.queue) != s.queued {
				t.Fatalf("seed %d step %d: %d batches queued, reference %d", seed, step, s.queued, len(ref.queue))
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // enqueue a batch, sometimes co-batched
				owner := pick()
				items := []pendingItem{{scope: owner}}
				for rng.Intn(3) == 0 {
					items = append(items, pendingItem{scope: pick()})
				}
				prio, weight := rng.Intn(3)-1, rng.Intn(4)
				s.pushLocked(&queuedBatch{batch: items, prio: prio, owner: owner, weight: weight})
				ref.push(&queuedBatch{batch: append([]pendingItem(nil), items...), prio: prio, owner: owner, weight: weight})
			case op < 8: // retire one admitted HIT, freeing its slot
				if inflight > 0 {
					inflight--
				}
			case op < 9: // cancel a scope
				sc := pick()
				got, want := s.sweepLocked(sc), ref.sweep(sc)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: sweep dropped %d items, reference %d", seed, step, len(got), len(want))
				}
			default: // SetAdmission
				max = rng.Intn(5)
			}
			drain(step)
		}
		max = 0
		drain(-1)
	}
}

// A scope's fair-share history lives on the scope, so a finished
// query's scope is garbage once its work is done: the scheduler keeps
// no per-scope history of its own.
func TestFinishedScopesAreCollectable(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{Workers: 50}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1, Linger: time.Hour})
	const n = 1000
	ptrs := make([]weak.Pointer[Scope], n)
	var done atomic.Int64
	for i := range ptrs {
		sc := m.NewScope()
		ptrs[i] = weak.Make(sc)
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString(fmt.Sprintf("cat-%d", i))}, Scope: sc,
			Done: func(Outcome) { done.Add(1) }})
	}
	runUntil(t, clock, func() bool { return done.Load() == n })
	runtime.GC()
	runtime.GC()
	live, first := 0, -1
	for i, p := range ptrs {
		if p.Value() != nil {
			if live == 0 {
				first = i
			}
			live++
		}
	}
	if live > 0 {
		t.Fatalf("%d of %d finished scopes are still reachable (first: scope %d)", live, n, first)
	}
	if got := m.Inflight(); got != 0 {
		t.Fatalf("Inflight() = %d after every batch completed", got)
	}
}
