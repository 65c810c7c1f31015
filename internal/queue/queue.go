// Package queue provides the bounded, closable tuple queues that Qurk's
// operators use to communicate asynchronously, in the style of the
// Volcano exchange operator the paper cites: each operator consumes from
// input queues and pushes to its parent's queue, so slow HITs in one part
// of the plan never block unrelated progress.
//
// A queue blocks its producers and consumers as participants of a
// quiesce.Tracker, so the virtual clock that drives the crowd does not
// advance while a handed-over tuple is still being processed.
package queue

import (
	"errors"
	"sync"

	"repro/internal/quiesce"
	"repro/internal/relation"
)

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("queue: closed")

// Queue is a bounded FIFO of tuples, safe for many producers and many
// consumers. Close signals end-of-stream: pending items remain poppable,
// Pop returns ok=false once drained.
type Queue struct {
	mu       sync.Mutex
	notFull  *quiesce.Cond
	notEmpty *quiesce.Cond
	buf      []relation.Tuple
	head     int
	count    int
	closed   bool

	// hwm tracks the high-water mark for dashboard reporting.
	hwm    int
	pushed int64
	popped int64
}

// New creates a queue with the given capacity (minimum 1). Its blocked
// Push and Pop calls are tracked blocks of t's participants (see
// package quiesce); a nil t tracks nothing.
func New(capacity int, t *quiesce.Tracker) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{buf: make([]relation.Tuple, capacity)}
	q.notFull = quiesce.NewCond(&q.mu, t)
	q.notEmpty = quiesce.NewCond(&q.mu, t)
	return q
}

// Push enqueues t, blocking while the queue is full. It returns ErrClosed
// if the queue is (or becomes, while blocked) closed.
func (q *Queue) Push(t relation.Tuple) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == len(q.buf) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	q.buf[(q.head+q.count)%len(q.buf)] = t
	q.count++
	q.pushed++
	if q.count > q.hwm {
		q.hwm = q.count
	}
	q.notEmpty.Signal()
	return nil
}

// TryPush enqueues without blocking; it reports false when full or closed.
func (q *Queue) TryPush(t relation.Tuple) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.count == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.count)%len(q.buf)] = t
	q.count++
	q.pushed++
	if q.count > q.hwm {
		q.hwm = q.count
	}
	q.notEmpty.Signal()
	return true
}

// Pop dequeues the oldest tuple, blocking while the queue is empty and
// open. ok is false only when the queue is closed and drained.
func (q *Queue) Pop() (t relation.Tuple, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.count == 0 {
		return relation.Tuple{}, false
	}
	t = q.buf[q.head]
	q.buf[q.head] = relation.Tuple{}
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.popped++
	q.notFull.Signal()
	return t, true
}

// TryPop dequeues without blocking. done reports the closed-and-drained
// state; ok reports whether a tuple was returned.
func (q *Queue) TryPop() (t relation.Tuple, ok, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return relation.Tuple{}, false, q.closed
	}
	t = q.buf[q.head]
	q.buf[q.head] = relation.Tuple{}
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.popped++
	q.notFull.Signal()
	return t, true, false
}

// Close marks end-of-stream and wakes all waiters. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Len returns the number of buffered tuples.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Stats reports lifetime counters for the dashboard.
func (q *Queue) Stats() (pushed, popped int64, highWater int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed, q.popped, q.hwm
}

// Drain pops every remaining tuple until closed-and-empty, returning them.
// It blocks until the producer closes the queue.
func (q *Queue) Drain() []relation.Tuple {
	var out []relation.Tuple
	for {
		t, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}
