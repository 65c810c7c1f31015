// Package mturk simulates the Mechanical Turk marketplace Qurk posts
// HITs to. The paper's workload runs against the real MTurk, where one
// HIT takes minutes; here a discrete-event virtual clock provides the
// same asynchrony and minutes-scale latency accounting while experiments
// finish in milliseconds. See DESIGN.md §2 for the substitution argument.
//
// # Sharding design
//
// Both the marketplace and the clock are lock-striped so that the
// thousands-of-async-HITs regime the paper targets scales with cores
// instead of serializing behind one mutex:
//
//   - Marketplace state is partitioned across DefaultMarketShards
//     shards keyed by an FNV-1a hash of the HIT ID; Post, complete,
//     Status and SubmitExternal touch only one shard's lock, and the
//     marketplace-wide Stats counters are atomics, so concurrent
//     requesters on different shards never contend.
//   - The clock keeps one logical timeline but spreads pending events
//     over per-shard queues (round-robin by sequence number). Schedule
//     takes only one shard lock; Step merges the queues by (time, seq),
//     which is a deterministic total order because seq comes from one
//     atomic counter. The shard count therefore never changes execution
//     order: identical schedules replay identically at any shard count.
//
// Determinism guarantee: every event whose Schedule completed before a
// Step begins runs in strictly increasing (time, seq) order; a Schedule
// overlapping a Step races it exactly as it would have raced the old
// single-mutex pop (see Step). When all scheduling happens from the
// pump goroutine itself (the single-threaded harness pattern — see
// internal/load), no such races exist and the whole simulation is a
// pure function of its seeds.
//
// # Quiescence
//
// The engine schedules from many goroutines: executor producers submit
// tuples while the pump runs HIT events, and a callback on the pump
// wakes operators that then submit follow-up work. Run therefore
// advances virtual time only at quiescence: it steps only while the
// clock's Activity tracker (internal/quiesce) counts no running
// participant, and each event runs under a count of its own, so work an
// event sets off completes, up to its next block on the crowd, before
// the next event fires. An ungated pump would pop whatever is queued
// while executor goroutines are still about to schedule earlier work,
// and batch boundaries, worker assignment and latencies would depend on
// how the Go scheduler interleaved them.
package mturk

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/quiesce"
)

// VirtualTime is simulated time since the start of the run.
type VirtualTime time.Duration

// Minutes reports the virtual time in minutes.
func (v VirtualTime) Minutes() float64 { return time.Duration(v).Minutes() }

// Duration converts to a time.Duration.
func (v VirtualTime) Duration() time.Duration { return time.Duration(v) }

type event struct {
	at  VirtualTime
	seq int64 // tie-break so equal-time events run in schedule order
	fn  func()
}

// eventPool recycles event nodes: the benchmark regime schedules
// millions of events and the per-event allocation was a measurable share
// of marketplace overhead.
var eventPool = sync.Pool{New: func() interface{} { return new(event) }}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// clockShard is one independently locked slice of the pending-event set.
// The padding keeps shards on separate cache lines.
type clockShard struct {
	mu     sync.Mutex
	events eventHeap
	_      [40]byte
}

// MaxClockShards caps the number of event queues a clock stripes
// schedules across. The effective count is min(MaxClockShards,
// GOMAXPROCS): striping only pays when schedulers actually run in
// parallel, and because Step merges shards by the global (time, seq)
// order, the shard count never affects execution order.
const MaxClockShards = 8

func clockShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n > MaxClockShards {
		n = MaxClockShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Clock is a deterministic discrete-event scheduler. Events run on the
// pump goroutine (Step/Run) in (time, seq) order; Schedule is safe from
// any goroutine and takes only one shard lock.
type Clock struct {
	now    atomic.Int64 // VirtualTime; written by the pump only
	seq    atomic.Int64
	closed atomic.Bool
	// schedVersion counts completed insertions; Step rescans when it
	// changes mid-scan so a concurrently scheduled earlier event on an
	// already-visited shard is not passed over.
	schedVersion atomic.Int64

	shards []clockShard

	// wake is a one-slot nudge channel for a blocked Run loop; waiting
	// gates the sends so the common Schedule path is allocation- and
	// syscall-free.
	wake    chan struct{}
	waiting atomic.Bool

	pace pace // optional real-time rate (see SetPace)

	// active counts the running goroutines that may still schedule
	// work at the current virtual time; Run steps only while it is zero.
	active *quiesce.Tracker
}

// NewClock returns a clock at virtual time zero.
func NewClock() *Clock {
	c := &Clock{
		shards: make([]clockShard, clockShardCount()),
		wake:   make(chan struct{}, 1),
	}
	c.active = quiesce.NewTracker(c.nudge)
	return c
}

// Activity returns the tracker of the goroutines Run waits for before
// it advances virtual time (nil for a nil clock).
func (c *Clock) Activity() *quiesce.Tracker {
	if c == nil {
		return nil
	}
	return c.active
}

// nudge wakes a Run loop that is waiting for new events or for the
// participants to block.
func (c *Clock) nudge() {
	if c.waiting.CompareAndSwap(true, false) {
		c.wakeAll()
	}
}

// Now returns the current virtual time.
func (c *Clock) Now() VirtualTime { return VirtualTime(c.now.Load()) }

// Schedule enqueues fn to run at now+delay. Negative delays run "now".
func (c *Clock) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	seq := c.seq.Add(1)
	e := eventPool.Get().(*event)
	e.at = c.Now() + VirtualTime(delay)
	e.seq = seq
	e.fn = fn
	sh := &c.shards[uint64(seq)%uint64(len(c.shards))]
	sh.mu.Lock()
	if c.closed.Load() {
		sh.mu.Unlock()
		return
	}
	heap.Push(&sh.events, e)
	sh.mu.Unlock()
	c.schedVersion.Add(1)
	c.nudge()
}

// wakeAll nudges any blocked Run loop. The one-slot channel makes it
// non-blocking and allocation-free; a stale token only causes a
// harmless spurious loop iteration.
func (c *Clock) wakeAll() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Pending reports the number of scheduled events.
func (c *Clock) Pending() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.events)
		sh.mu.Unlock()
	}
	return n
}

// Step runs the earliest event — the (time, seq) minimum across every
// shard queue — advancing virtual time to it. It reports false when no
// events are pending.
//
// Every event whose Schedule call completed before Step began is merged
// in strict (time, seq) order: the scan retries whenever an insertion
// lands mid-scan (schedVersion) or the chosen shard's head changes. A
// Schedule still racing Step after several retries may see its event
// deferred to the next Step, where it runs at the already-advanced
// virtual now — observably the same as having scheduled just after the
// popped event fired, which is the only honest ordering for a schedule
// that overlaps the pop.
//
// The event runs as a participant of Activity, so an operator it wakes
// through a tracked primitive keeps Run from stepping until that
// operator blocks again. Step itself does not wait for quiescence; Run
// does.
func (c *Clock) Step() bool { return c.step(false) == stepRan }

// stepResult is what one step attempt did.
type stepResult int

const (
	stepRan   stepResult = iota // popped and ran an event
	stepEmpty                   // no event pending
	stepBusy                    // gated: a participant is still running
)

// step runs the earliest event. With gated set it declines while any
// participant is active. The check is made under the lock of the shard
// holding the chosen event: a participant takes its count before it
// schedules, so an event it scheduled is never popped ahead of work it
// has yet to schedule.
func (c *Clock) step(gated bool) stepResult {
	const maxRescans = 4
	for attempt := 0; ; attempt++ {
		version := c.schedVersion.Load()
		best := -1
		var bestAt VirtualTime
		var bestSeq int64
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			if len(sh.events) > 0 {
				e := sh.events[0]
				if best < 0 || e.at < bestAt || (e.at == bestAt && e.seq < bestSeq) {
					best, bestAt, bestSeq = i, e.at, e.seq
				}
			}
			sh.mu.Unlock()
		}
		if best < 0 {
			if c.schedVersion.Load() != version {
				continue // an insert raced the empty scan; look again
			}
			return stepEmpty
		}
		if attempt < maxRescans && c.schedVersion.Load() != version {
			continue // something landed mid-scan; re-establish the minimum
		}
		sh := &c.shards[best]
		sh.mu.Lock()
		if len(sh.events) == 0 || sh.events[0].seq != bestSeq {
			// An earlier event arrived on this shard between the scan
			// and the pop; rescan so the merge order stays correct.
			sh.mu.Unlock()
			continue
		}
		if gated && c.active.Active() {
			sh.mu.Unlock()
			return stepBusy
		}
		e := heap.Pop(&sh.events).(*event)
		sh.mu.Unlock()
		if at := int64(e.at); at > c.now.Load() {
			c.now.Store(at)
		}
		fn := e.fn
		*e = event{}
		eventPool.Put(e)
		// Run outside all locks so events may Schedule more events.
		c.active.Hold()
		fn()
		c.active.Release()
		return stepRan
	}
}

// Run pumps events until stop reports true and the event queue is idle.
// It steps only at quiescence: while any Activity participant runs, Run
// waits for the last one to block. When the queue is momentarily empty
// but stop is still false — a caller may be about to start more work —
// Run waits for a Schedule wakeup, with a short real-time poll as a
// liveness backstop for the window where stop flips without any final
// event.
func (c *Clock) Run(stop func() bool) {
	var poll *time.Timer
	for {
		if factor := c.pace.get(); factor > 0 {
			if at, ok := c.peekNext(); ok && at > c.Now() {
				if stop() {
					return
				}
				if !c.paceWait(factor) {
					return
				}
				continue
			}
		}
		res := c.step(true)
		if res == stepRan {
			continue
		}
		if c.closed.Load() {
			return
		}
		if res == stepEmpty && stop() {
			return
		}
		c.waiting.Store(true)
		if c.Pending() > 0 && !c.active.Active() {
			c.waiting.Store(false)
			continue
		}
		if res == stepBusy {
			// The last participant to block releases its count and
			// nudges; Close nudges too.
			<-c.wake
			c.waiting.Store(false)
			continue
		}
		if poll == nil {
			poll = time.NewTimer(200 * time.Microsecond)
		} else {
			poll.Reset(200 * time.Microsecond)
		}
		select {
		case <-c.wake:
			poll.Stop()
		case <-poll.C:
		}
		c.waiting.Store(false)
	}
}

// Close wakes Run so it can observe shutdown. Scheduled-but-unrun events
// are dropped.
func (c *Clock) Close() {
	if c.closed.Swap(true) {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.events = nil
		sh.mu.Unlock()
	}
	c.wakeAll()
}

// Closed reports whether Close has been called.
func (c *Clock) Closed() bool { return c.closed.Load() }
