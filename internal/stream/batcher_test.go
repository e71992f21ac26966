package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBatcherRunsEverySubmission(t *testing.T) {
	var flushes, coalesced atomic.Int64
	var waits atomic.Int64
	b := NewBatcher(2, 64,
		func(run int) { flushes.Add(1); coalesced.Add(int64(run)) },
		func(d time.Duration) {
			if d < 0 {
				t.Error("negative queue wait")
			}
			waits.Add(1)
		})
	defer b.Close()

	const devices, pushes = 16, 50
	var sum atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := NewTask()
			for j := 0; j < pushes; j++ {
				b.Submit(task, func() { sum.Add(1) })
			}
		}()
	}
	wg.Wait()

	if got := sum.Load(); got != devices*pushes {
		t.Fatalf("executed %d tasks, want %d", got, devices*pushes)
	}
	if got := waits.Load(); got != devices*pushes {
		t.Fatalf("onWait saw %d tasks, want %d", got, devices*pushes)
	}
	// Every task belongs to exactly one flush run. A worker reports its
	// run after the run's last task has signalled done, so Close (which
	// waits for the workers) must return before the tally is final.
	b.Close()
	if got := coalesced.Load(); got != devices*pushes {
		t.Fatalf("flush runs covered %d tasks, want %d", got, devices*pushes)
	}
	if flushes.Load() < 1 || flushes.Load() > devices*pushes {
		t.Fatalf("flush count %d out of range", flushes.Load())
	}
}

func TestBatcherCoalesces(t *testing.T) {
	// One worker, one slow first task: everything submitted while it
	// runs must drain in a single greedy run.
	runs := make(chan int, 16)
	b := NewBatcher(1, 64, func(run int) { runs <- run }, nil)
	defer b.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		t := NewTask()
		b.Submit(t, func() { close(started); <-gate })
	}()
	<-started

	const queued = 8
	var wg sync.WaitGroup
	var executed atomic.Int64
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Submit(NewTask(), func() { executed.Add(1) })
		}()
	}
	// Let the submitters reach the queue, then release the worker.
	for b.Depth() < queued {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := executed.Load(); got != queued {
		t.Fatalf("executed %d, want %d", got, queued)
	}
	if run := <-runs; run != 1+queued {
		t.Fatalf("first flush coalesced %d tasks, want %d", run, 1+queued)
	}
}

func TestBatcherCloseDrainsAndGoesInline(t *testing.T) {
	var executed atomic.Int64
	b := NewBatcher(4, 128, nil, nil)

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Submit(NewTask(), func() { executed.Add(1) })
		}()
	}
	b.Close()
	wg.Wait()
	if got := executed.Load(); got != 32 {
		t.Fatalf("executed %d of 32 tasks across Close", got)
	}

	// After Close, Submit degrades to inline execution.
	ran := false
	b.Submit(NewTask(), func() { ran = true })
	if !ran {
		t.Fatal("post-Close Submit did not run inline")
	}
	b.Close() // idempotent
}
