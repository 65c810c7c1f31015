package taskmgr

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/budget"
	"repro/internal/mturk"
)

// This file is the admission scheduler: every cut batch passes through
// it on the way to the marketplace. With no gate configured batches
// post immediately in cut order, preserving the ungated behavior; with
// SetAdmission(n) at most n scheduler-admitted HITs are in flight at
// once and further batches queue, ordered by priority, then weighted
// fair share of admitted HITs per scope, then FIFO — so a thousand
// queued queries degrade gracefully instead of flooding the
// marketplace, and no scope can starve another at equal priority.
// Batches queue in one FIFO per (owner, priority, weight), so a take
// compares FIFO heads only; a scope carries its own fair-share history,
// so nothing here outlives the queries that queued work.

// queuedBatch is one cut batch waiting for an admission slot.
type queuedBatch struct {
	st     *taskState
	batch  []pendingItem
	seq    int64
	prio   int               // highest item priority in the batch
	owner  *Scope            // fair-share accounting key (first item's scope)
	weight int               // owner's fair-share weight at enqueue time
	at     mturk.VirtualTime // enqueue time; tracing's admission-wait basis
	// charged records the provisional per-scope cost released when the
	// batch is admitted (or its scope swept); see Scope.addQueuedCost.
	charged []hitShare
}

func (qb *queuedBatch) releaseProvisional() {
	for _, pc := range qb.charged {
		pc.scope.addQueuedCost(-pc.cost)
	}
	qb.charged = nil
}

// admitKey identifies one admission FIFO: batches of the same owner,
// priority and fair-share weight. Within a FIFO every term of the
// admission order but the sequence number is equal, so the FIFO's head
// is always its best batch.
type admitKey struct {
	owner  *Scope
	prio   int
	weight int
}

// admitQueue is one non-empty FIFO of queued batches, ascending seq.
type admitQueue struct {
	key     admitKey
	batches []*queuedBatch
}

type scheduler struct {
	mu       sync.Mutex
	max      int // 0 = unlimited
	inflight int // admitted HITs not yet retired
	nextSeq  int64
	queued   int           // batches queued across all FIFOs
	fifos    []*admitQueue // the non-empty FIFOs, in no order
	byKey    map[admitKey]*admitQueue
	// unscoped is the fair-share history of the nil scope; a scope
	// keeps its own (Scope.admitted), so a finished query's history
	// goes away with its scope.
	unscoped    int64
	dispatching bool
}

// admittedLocked returns an owner's fair-share history: batch HITs
// admitted for it since it was created (or last swept). sched.mu held.
func (s *scheduler) admittedLocked(owner *Scope) int64 {
	if owner == nil {
		return s.unscoped
	}
	return owner.admitted
}

// noteAdmittedLocked counts one admission against the owner's fair
// share. sched.mu held.
func (s *scheduler) noteAdmittedLocked(owner *Scope) {
	if owner == nil {
		s.unscoped++
	} else {
		owner.admitted++
	}
}

// pushLocked queues a batch at the tail of its FIFO, numbering it.
// sched.mu held.
func (s *scheduler) pushLocked(qb *queuedBatch) {
	s.nextSeq++
	qb.seq = s.nextSeq
	k := admitKey{owner: qb.owner, prio: qb.prio, weight: qb.weight}
	q := s.byKey[k]
	if q == nil {
		if s.byKey == nil {
			s.byKey = make(map[admitKey]*admitQueue)
		}
		q = &admitQueue{key: k}
		s.byKey[k] = q
		s.fifos = append(s.fifos, q)
	}
	q.batches = append(q.batches, qb)
	s.queued++
}

// dropFIFOLocked forgets the empty FIFO at index i. sched.mu held.
func (s *scheduler) dropFIFOLocked(i int) {
	delete(s.byKey, s.fifos[i].key)
	last := len(s.fifos) - 1
	s.fifos[i] = s.fifos[last]
	s.fifos[last] = nil
	s.fifos = s.fifos[:last]
}

// SetAdmission caps concurrently in-flight batch HITs posted through
// the scheduler (0 = unlimited). The gate covers batch HITs only:
// grid, comparison and grouped HITs post directly and neither wait for
// nor hold a slot. Lowering the cap does not recall posted HITs; it
// only gates future admissions. Raising it admits queued batches
// immediately.
func (m *Manager) SetAdmission(maxInflight int) {
	m.sched.mu.Lock()
	m.sched.max = maxInflight
	m.sched.mu.Unlock()
	m.dispatch()
}

// enqueueBatch registers one cut batch with the scheduler, recording a
// provisional per-scope cost so Scope.RemainingBudget sees
// queued-but-unposted work (the authoritative split is re-derived at
// post time, when canceled scopes have been filtered out).
func (m *Manager) enqueueBatch(st *taskState, batch []pendingItem) {
	pol := m.batchPolicy(st, batch)
	cost := budget.Cents(pol.PriceCents * int64(pol.Assignments))
	prio := batch[0].priority
	for _, it := range batch[1:] {
		if it.priority > prio {
			prio = it.priority
		}
	}
	charged := shareOut(batch, cost)
	for _, sh := range charged {
		sh.scope.addQueuedCost(sh.cost)
	}
	s := &m.sched
	s.mu.Lock()
	s.pushLocked(&queuedBatch{
		st:      st,
		batch:   batch,
		prio:    prio,
		owner:   batch[0].scope,
		weight:  batch[0].scope.weightNow(),
		at:      m.market.Clock().Now(),
		charged: charged,
	})
	s.mu.Unlock()
}

// dispatch admits queued batches while the gate has room. Only one
// goroutine dispatches at a time; the others return immediately — the
// active dispatcher holds the flag from its final queue check to the
// clear, so batches enqueued concurrently are never stranded.
func (m *Manager) dispatch() {
	s := &m.sched
	s.mu.Lock()
	if s.dispatching {
		s.mu.Unlock()
		return
	}
	s.dispatching = true
	for s.queued > 0 && (s.max <= 0 || s.inflight < s.max) {
		qb := s.takeLocked()
		s.inflight++
		s.noteAdmittedLocked(qb.owner)
		s.mu.Unlock()
		qb.releaseProvisional()
		posted := m.postBatch(qb.st, qb.batch, qb.at)
		s.mu.Lock()
		if !posted {
			s.inflight--
		}
	}
	s.dispatching = false
	s.mu.Unlock()
}

// hitRetired releases an admission slot when a scheduler-admitted HIT
// leaves the in-flight table (completion, terminal assignment failure,
// or full expiry), then admits queued work into the freed slot.
func (m *Manager) hitRetired(fl *flight) {
	if !fl.admitted {
		return
	}
	m.sched.mu.Lock()
	m.sched.inflight--
	m.sched.mu.Unlock()
	m.dispatch()
}

// takeLocked pops the best queued batch: highest priority first, then
// the owner with the fewest admitted HITs per unit of fair-share
// weight (compared by cross-multiplication, so the arithmetic stays in
// integers), then lowest sequence number (FIFO). Only FIFO heads are
// compared: within a FIFO the order reduces to seq, so the best head is
// the best queued batch, and a take costs O(FIFOs) — one per distinct
// (owner, priority, weight) with work queued — however many batches
// wait behind them. With no gate set the queue holds whatever piles up
// while one dispatcher posts, which can be thousands of batches.
// sched.mu held; the queue must be non-empty.
func (s *scheduler) takeLocked() *queuedBatch {
	best := 0
	for i := 1; i < len(s.fifos); i++ {
		if s.betterLocked(s.fifos[i].batches[0], s.fifos[best].batches[0]) {
			best = i
		}
	}
	q := s.fifos[best]
	qb := q.batches[0]
	q.batches[0] = nil
	q.batches = q.batches[1:]
	if len(q.batches) == 0 {
		s.dropFIFOLocked(best)
	}
	s.queued--
	return qb
}

func (s *scheduler) betterLocked(a, b *queuedBatch) bool {
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
	aa, ba := s.admittedLocked(a.owner), s.admittedLocked(b.owner)
	if aa*bw != ba*aw {
		return aa*bw < ba*aw
	}
	return a.seq < b.seq
}

func (s *scheduler) queuedItems() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.fifos {
		for _, qb := range q.batches {
			n += len(qb.batch)
		}
	}
	return n
}

// sweepScheduler removes a canceled scope's items from every queued
// batch: its provisional cost releases, its items resolve with the
// cause (in queue order), and batches emptied by the sweep leave the
// queue. Other scopes' shares of a co-batched entry keep their place.
// The scope's fair-share history is reset.
func (m *Manager) sweepScheduler(sc *Scope, cause error) {
	s := &m.sched
	s.mu.Lock()
	dropped := s.sweepLocked(sc)
	s.mu.Unlock()
	failItems(dropped, cause)
}

// sweepLocked does sweepScheduler's queue work and returns the dropped
// items. sched.mu held.
func (s *scheduler) sweepLocked(sc *Scope) []pendingItem {
	var touched []*queuedBatch
	for _, q := range s.fifos {
		for _, qb := range q.batches {
			if qb.holds(sc) {
				touched = append(touched, qb)
			}
		}
	}
	slices.SortFunc(touched, func(a, b *queuedBatch) int { return cmp.Compare(a.seq, b.seq) })
	var dropped []pendingItem
	emptied := false
	for _, qb := range touched {
		rest := qb.batch[:0:0]
		for _, it := range qb.batch {
			if it.scope == sc {
				dropped = append(dropped, it)
			} else {
				rest = append(rest, it)
			}
		}
		qb.batch = rest
		emptied = emptied || len(rest) == 0
		keptCharges := qb.charged[:0]
		for _, pc := range qb.charged {
			if pc.scope == sc {
				pc.scope.addQueuedCost(-pc.cost)
			} else {
				keptCharges = append(keptCharges, pc)
			}
		}
		qb.charged = keptCharges
	}
	for i := 0; emptied && i < len(s.fifos); {
		q := s.fifos[i]
		kept := q.batches[:0]
		for _, qb := range q.batches {
			if len(qb.batch) > 0 {
				kept = append(kept, qb)
			}
		}
		clear(q.batches[len(kept):])
		s.queued -= len(q.batches) - len(kept)
		q.batches = kept
		if len(kept) == 0 {
			s.dropFIFOLocked(i)
			continue
		}
		i++
	}
	if sc != nil {
		sc.admitted = 0
	} else {
		s.unscoped = 0
	}
	return dropped
}

// holds reports whether the batch carries an item or a provisional
// charge of sc.
func (qb *queuedBatch) holds(sc *Scope) bool {
	for _, it := range qb.batch {
		if it.scope == sc {
			return true
		}
	}
	for _, pc := range qb.charged {
		if pc.scope == sc {
			return true
		}
	}
	return false
}
