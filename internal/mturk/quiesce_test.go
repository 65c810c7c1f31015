package mturk

import (
	"sync"
	"testing"
	"time"

	"repro/internal/quiesce"
)

// TestRunStepsOnlyAtQuiescence pins the clock race behind the
// nondeterministic experiment tables: an event wakes an operator
// goroutine, which does real-time work and then schedules follow-up
// work at the current virtual time. A pump that pops whatever is queued
// runs the later, pre-scheduled event first and then the follow-up at
// the later time; Run must wait until the woken goroutine blocks again.
func TestRunStepsOnlyAtQuiescence(t *testing.T) {
	c := NewClock()
	active := c.Activity()
	var mu sync.Mutex
	cond := quiesce.NewCond(&mu, active)
	woken := false
	var order []string
	var followUpAt VirtualTime
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	done := make(chan struct{})

	active.Go(func() { // an operator waiting on the crowd
		mu.Lock()
		for !woken {
			cond.Wait()
		}
		mu.Unlock()
		time.Sleep(20 * time.Millisecond) // real work between wakeup and submit
		c.Schedule(0, func() {
			followUpAt = c.Now()
			record("follow-up")
		})
	})
	c.Schedule(time.Minute, func() {
		record("wake")
		mu.Lock()
		woken = true
		cond.Signal()
		mu.Unlock()
	})
	c.Schedule(2*time.Minute, func() {
		record("later")
		close(done)
	})
	stop := make(chan struct{})
	go c.Run(func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	})
	defer func() { close(stop); c.Close() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clock stalled")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"wake", "follow-up", "later"}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("event order = %v, want %v", order, want)
	}
	if followUpAt != VirtualTime(time.Minute) {
		t.Fatalf("follow-up ran at %v, want 1m (the wake time)", followUpAt.Duration())
	}
}

// TestRunWaitsForHeldActivity checks that a Hold from outside any event
// (a caller submitting a burst of work) keeps Run from stepping until
// the matching Release.
func TestRunWaitsForHeldActivity(t *testing.T) {
	c := NewClock()
	ran := make(chan struct{})
	c.Activity().Hold()
	c.Schedule(time.Minute, func() { close(ran) })
	stop := make(chan struct{})
	go c.Run(func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	})
	defer func() { close(stop); c.Close() }()
	select {
	case <-ran:
		t.Fatal("event ran while a participant held the clock")
	case <-time.After(20 * time.Millisecond):
	}
	c.Activity().Release()
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("event did not run after the release")
	}
}
