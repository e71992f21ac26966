package stream

import (
	"sync"
	"time"
)

// Batcher is the streaming ingress's admission stage: concurrently
// arriving pushes from many device connections funnel into one queue,
// and each worker drains whatever has accumulated in one greedy run.
// Coalescing was meant to amortize the feature-extraction working set,
// but no benefit was ever measured: perfbench's traced run saw a
// coalesced ratio of 4×10⁻⁶. The batcher stays only until a benchmark
// change retires stream.admit_wait_us and stream.coalesced_ratio.
//
// One connection submits at most one task at a time (ADSP acknowledges
// each batch before the device sends the next), so per-device ordering
// is structural and queue depth is bounded by live connections.
type Batcher struct {
	ch   chan *Task
	stop chan struct{}
	wg   sync.WaitGroup

	// mu orders Submit's enqueue against Close: Submits that saw the
	// batcher open hold the read side across their enqueue, so once
	// Close holds the write side every such task is in the queue and
	// will be drained before the workers exit.
	mu     sync.RWMutex
	closed bool

	// onFlush, if set, observes each completed run with the number of
	// tasks it coalesced; onWait observes each task's queue wait (the
	// "admit" stage).
	onFlush func(run int)
	onWait  func(d time.Duration)
}

// Task is one submission's reusable handle. A connection allocates one
// Task up front and submits through it for its whole lifetime, so the
// steady-state push path allocates nothing here.
type Task struct {
	fn   func()
	enq  time.Time
	done chan struct{}
}

// NewTask returns a reusable submission handle.
func NewTask() *Task { return &Task{done: make(chan struct{}, 1)} }

// NewBatcher starts a batcher with the given worker count and queue
// capacity (both forced to at least 1). onFlush and onWait may be nil.
func NewBatcher(workers, queue int, onFlush func(run int), onWait func(d time.Duration)) *Batcher {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	b := &Batcher{
		ch:      make(chan *Task, queue),
		stop:    make(chan struct{}),
		onFlush: onFlush,
		onWait:  onWait,
	}
	b.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go b.worker()
	}
	return b
}

// Submit runs fn through the batcher and blocks until it has executed.
// t must not be shared between concurrent Submits. After Close, fn
// runs inline on the caller.
func (b *Batcher) Submit(t *Task, fn func()) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		fn()
		return
	}
	t.fn = fn
	t.enq = time.Now()
	b.ch <- t // blocks when the queue is full: natural backpressure
	b.mu.RUnlock()
	<-t.done
}

// Depth returns the current queue occupancy (tasks admitted but not
// yet picked up by a worker) — the batcher-occupancy gauge.
func (b *Batcher) Depth() int { return len(b.ch) }

// Close drains the queue, executes everything already submitted, and
// stops the workers. Tasks submitted after Close run inline on their
// caller. Close is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	// Every Submit that saw the batcher open has finished its enqueue
	// (it held the read lock across the channel send), so the workers'
	// shutdown drain below cannot strand a task.
	close(b.stop)
	b.wg.Wait()
}

func (b *Batcher) worker() {
	defer b.wg.Done()
	for {
		select {
		case t := <-b.ch:
			run := b.flush(t)
			if b.onFlush != nil {
				b.onFlush(run)
			}
		case <-b.stop:
			// Shutdown drain: nothing new can be enqueued once stop is
			// closed (Close holds the write lock first), so emptying the
			// queue here is terminal.
			for {
				select {
				case t := <-b.ch:
					b.exec(t)
				default:
					return
				}
			}
		}
	}
}

// flush executes t and then greedily drains whatever else has queued
// behind it without blocking — one coalescing run.
func (b *Batcher) flush(t *Task) int {
	run := 1
	b.exec(t)
	for {
		select {
		case t2 := <-b.ch:
			b.exec(t2)
			run++
		default:
			return run
		}
	}
}

func (b *Batcher) exec(t *Task) {
	if b.onWait != nil {
		b.onWait(time.Since(t.enq))
	}
	t.fn()
	t.fn = nil
	t.done <- struct{}{}
}
