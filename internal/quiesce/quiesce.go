// Package quiesce lets a discrete-event clock advance only at
// quiescence: when every goroutine that could still schedule work at the
// current virtual time is blocked.
//
// A Tracker counts the active participants. A participant goroutine
// holds one count while it runs. It gives the count up when it blocks on
// one of this package's primitives (Cond, WaitGroup, Semaphore), and
// whoever wakes it adds a count on its behalf before the wakeup, so the
// count never passes through zero while a wakeup is in transit. The
// clock (internal/mturk) steps only while the count is zero, and runs
// each event under a count of its own: a callback that wakes a
// participant keeps the clock stopped until that participant blocks
// again or exits. The order of events is then a function of what was
// scheduled, not of how the Go scheduler interleaved the goroutines.
//
// Wakers need not be participants; waiters must be. A goroutine that
// blocks on a primitive without holding a count would give up a count
// it does not own, so code that may block on a tracked primitive from a
// foreign goroutine (a network poller, an HTTP handler, a cancel from
// the caller) brackets that call with Hold and Release.
//
// A nil *Tracker counts nothing; the primitives then behave like their
// sync counterparts.
package quiesce

import (
	"sync"
	"sync/atomic"
)

// Tracker counts active participants.
type Tracker struct {
	n      atomic.Int64
	onIdle func()
}

// NewTracker returns a tracker that calls onIdle (which must not block)
// each time the count drops to zero.
func NewTracker(onIdle func()) *Tracker { return &Tracker{onIdle: onIdle} }

// Hold counts the calling goroutine as active until its matching
// Release.
func (t *Tracker) Hold() { t.add(1) }

func (t *Tracker) add(k int) {
	if t != nil {
		t.n.Add(int64(k))
	}
}

// Release ends a Hold.
func (t *Tracker) Release() {
	if t == nil {
		return
	}
	switch n := t.n.Add(-1); {
	case n == 0:
		if t.onIdle != nil {
			t.onIdle()
		}
	case n < 0:
		panic("quiesce: Release without a matching Hold")
	}
}

// Active reports whether any participant is running.
func (t *Tracker) Active() bool { return t != nil && t.n.Load() > 0 }

// Go runs fn on a new goroutine that is a participant until fn returns.
// The count is taken before the goroutine starts, so the clock cannot
// step between the call and fn's first instruction.
func (t *Tracker) Go(fn func()) {
	t.Hold()
	go func() {
		defer t.Release()
		fn()
	}()
}

// Cond is a sync.Cond whose waiters are participants of a tracker.
// Wait, Signal and Broadcast must all be called with L held, so the
// waiter count matches the goroutines parked on the condition.
type Cond struct {
	c       sync.Cond
	t       *Tracker
	waiters int
}

// NewCond returns a condition on l whose waiters t counts.
func NewCond(l sync.Locker, t *Tracker) *Cond {
	return &Cond{c: sync.Cond{L: l}, t: t}
}

// Wait gives up the caller's count and blocks until signaled; it
// returns holding a count handed over by the waker.
func (c *Cond) Wait() {
	c.waiters++
	c.t.Release()
	c.c.Wait()
}

// Signal wakes one waiter, if any, handing it a count.
func (c *Cond) Signal() {
	if c.waiters > 0 {
		c.waiters--
		c.t.add(1)
		c.c.Signal()
	}
}

// Broadcast wakes every waiter, handing each a count.
func (c *Cond) Broadcast() {
	if c.waiters > 0 {
		c.t.add(c.waiters)
		c.waiters = 0
		c.c.Broadcast()
	}
}

// WaitGroup is a sync.WaitGroup whose Wait is a tracked block.
type WaitGroup struct {
	mu   sync.Mutex
	cond Cond
	n    int
}

// NewWaitGroup returns a wait group whose waiters t counts.
func (t *Tracker) NewWaitGroup() *WaitGroup {
	w := &WaitGroup{}
	w.cond = Cond{c: sync.Cond{L: &w.mu}, t: t}
	return w
}

// Add adds delta to the counter; reaching zero wakes every waiter.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.mu.Unlock()
		panic("quiesce: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter is zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	for w.n > 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// Semaphore admits at most a fixed number of holders at once.
type Semaphore struct {
	mu        sync.Mutex
	cond      Cond
	held, max int
}

// NewSemaphore returns a semaphore of max slots whose waiters t counts.
func (t *Tracker) NewSemaphore(max int) *Semaphore {
	s := &Semaphore{max: max}
	s.cond = Cond{c: sync.Cond{L: &s.mu}, t: t}
	return s
}

// Acquire takes a slot, blocking while all are taken.
func (s *Semaphore) Acquire() {
	s.mu.Lock()
	for s.held >= s.max {
		s.cond.Wait()
	}
	s.held++
	s.mu.Unlock()
}

// Release returns a slot, waking one waiter.
func (s *Semaphore) Release() {
	s.mu.Lock()
	s.held--
	s.cond.Signal()
	s.mu.Unlock()
}
