package quiesce

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// count reads a tracker's current participant count.
func count(t *Tracker) int64 { return t.n.Load() }

// waitCount polls until the tracker reaches want (the waiter under test
// parks on its own schedule).
func waitCount(t *testing.T, tr *Tracker, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for count(tr) != want {
		if time.Now().After(deadline) {
			t.Fatalf("count = %d, want %d", count(tr), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCondHandsCountToWaiter checks the core invariant: a blocked
// participant holds no count, and a wakeup hands it one before it runs,
// so the count never reads zero while the woken goroutine is still to
// run.
func TestCondHandsCountToWaiter(t *testing.T) {
	var idles atomic.Int64
	var mu sync.Mutex
	tr := NewTracker(func() { idles.Add(1) })
	c := NewCond(&mu, tr)
	ready := false
	woke := make(chan int64)
	tr.Go(func() {
		mu.Lock()
		for !ready {
			c.Wait()
		}
		mu.Unlock()
		woke <- count(tr)
	})
	waitCount(t, tr, 0)
	if idles.Load() == 0 {
		t.Fatal("count reached zero without calling onIdle")
	}
	mu.Lock()
	ready = true
	c.Signal() // from a non-participant: wakers need no count
	if got := count(tr); got != 1 {
		mu.Unlock()
		t.Fatalf("count after Signal = %d, want 1 (handed to the waiter)", got)
	}
	mu.Unlock()
	if got := <-woke; got != 1 {
		t.Fatalf("woken waiter ran with count %d, want 1", got)
	}
	waitCount(t, tr, 0) // the goroutine's exit releases the handed count
}

func TestWaitGroupAndSemaphoreHandOver(t *testing.T) {
	tr := NewTracker(nil)
	wg := tr.NewWaitGroup()
	wg.Add(1)
	sem := tr.NewSemaphore(1)
	sem.Acquire() // taken by a non-participant: an Acquire that does not block needs no count
	woke := make(chan int64)
	tr.Go(func() {
		wg.Wait()
		woke <- count(tr)
		sem.Acquire()
		sem.Release()
		woke <- count(tr)
	})
	waitCount(t, tr, 0)
	wg.Done()
	if got := <-woke; got != 1 {
		t.Fatalf("count after WaitGroup.Done = %d, want 1", got)
	}
	waitCount(t, tr, 0) // now parked on the semaphore
	sem.Release()
	if got := <-woke; got != 1 {
		t.Fatalf("count after Semaphore.Release = %d, want 1", got)
	}
	waitCount(t, tr, 0)
}

func TestBroadcastHandsEveryWaiterACount(t *testing.T) {
	var mu sync.Mutex
	tr := NewTracker(nil)
	c := NewCond(&mu, tr)
	open := false
	var exited sync.WaitGroup
	for i := 0; i < 3; i++ {
		exited.Add(1)
		tr.Go(func() {
			defer exited.Done()
			mu.Lock()
			for !open {
				c.Wait()
			}
			mu.Unlock()
		})
	}
	waitCount(t, tr, 0)
	mu.Lock()
	open = true
	c.Broadcast()
	got := count(tr)
	mu.Unlock()
	if got != 3 {
		t.Fatalf("count after Broadcast = %d, want 3", got)
	}
	exited.Wait()
	waitCount(t, tr, 0)
}

func TestReleaseWithoutHoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unmatched Release did not panic")
		}
	}()
	NewTracker(nil).Release()
}

func TestNilTrackerPrimitivesWork(t *testing.T) {
	var tr *Tracker
	tr.Hold()
	tr.Release()
	if tr.Active() {
		t.Fatal("nil tracker reports activity")
	}
	wg := tr.NewWaitGroup()
	wg.Add(1)
	go wg.Done()
	wg.Wait()
	sem := tr.NewSemaphore(1)
	sem.Acquire()
	go sem.Release()
	sem.Acquire()
}
