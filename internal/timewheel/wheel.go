// Package timewheel implements a hashed timer wheel shared by every paced
// stream of the process.
//
// The data plane schedules one departure per frame slot: at 25 fps a
// stream arms ~25 times a second, and a server fanning out to tens of
// thousands of streams would otherwise create (and garbage-collect) that
// many time.NewTimer heap entries per second, each with its own runtime
// timer. The wheel replaces them with caller-owned Tasks hashed into a
// fixed ring of slots advanced by a single goroutine, which also runs
// the due callbacks — a paced stream's frames are sent from the tick, not
// from a goroutine the tick would have to wake. Arming allocates nothing
// and the runtime sees one timer regardless of how many streams pace
// against it.
//
// Precision is one tick (default 1ms — deliberately coarser than a runtime
// timer): the tick goroutine wakes once a tick and runs every task whose
// deadline has passed by then, so a task runs within a tick after its
// deadline and never before it. That composes with the sender's measured-wait pacing
// semantics from the stream layer: throttle and live-edge waits credit the
// time actually spent, so wheel granularity shifts a schedule by at most a
// tick instead of accumulating as drift or phantom lateness.
//
//xmovie:pacing-package
package timewheel

import (
	"sync"
	"time"
)

// Default wheel geometry.
const (
	// DefaultTick is the wheel's firing granularity.
	DefaultTick = time.Millisecond
	// DefaultSlots is the ring size; waits longer than Tick×Slots survive
	// via per-task absolute deadlines (a hashed wheel, not a hierarchical
	// one — long waits are rare on the pacing path).
	DefaultSlots = 512
)

// Stats counts a wheel's activity since creation.
type Stats struct {
	// Ticks is how many passes the tick goroutine made: one per tick while
	// anything is armed, none while the wheel is parked.
	Ticks int64
	// Armed counts At/Wait/NewTimer arms; Fired and Canceled partition
	// their completions (tasks still pending account for the difference).
	Armed    int64
	Fired    int64
	Canceled int64
}

// Task is one schedulable callback. The caller owns it — typically embedded
// in the per-stream state it steps — so arming allocates nothing and
// Cancel leaves the wheel holding no reference to it. Fn runs on the
// wheel's tick goroutine with no wheel lock held: it may re-arm its own or
// any other task, must not block, and must tolerate running once more after
// a Cancel that reported false.
type Task struct {
	Fn func()

	// Guarded by the wheel's mu. deadline is when the task fires, measured
	// from the wheel's epoch; one beyond a ring revolution keeps the task
	// in its slot until the revolution that reaches it. prev is the link
	// pointing at the task, nil while it is not armed.
	deadline time.Duration
	next     *Task
	prev     **Task
}

// waiter is a Task that signals a channel: the blocking form of a wait.
// The channel is buffered (capacity 1) and signalled by send, never closed,
// so a pooled waiter is reusable once drained.
type waiter struct {
	Task
	ch chan struct{}
}

var waiterPool = sync.Pool{New: func() any {
	t := &waiter{ch: make(chan struct{}, 1)}
	t.Fn = func() { t.ch <- struct{}{} }
	return t
}}

// Wheel is a hashed timer wheel: slots[i] holds the tasks whose deadline
// tick hashes to i. One goroutine advances the cursor every tick while any
// task is armed, and parks when the wheel drains.
type Wheel struct {
	tick  time.Duration
	mask  int64
	epoch time.Time

	mu      sync.Mutex
	slots   []*Task
	cur     int64 // absolute index of the slot the last pass ended in
	active  int   // armed tasks
	running bool  // ticker goroutine live
	stats   Stats
}

// New builds a wheel with the given tick and slot count (zero values select
// the defaults; slots is rounded up to a power of two).
func New(tick time.Duration, slots int) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &Wheel{
		tick:  tick,
		mask:  int64(n - 1),
		slots: make([]*Task, n),
		epoch: time.Now(),
	}
}

// defaultWheel is the process-wide wheel every paced stream shares.
var (
	defaultOnce  sync.Once
	defaultWheel *Wheel
)

// Default returns the process-wide shared wheel, creating it on first use.
func Default() *Wheel {
	defaultOnce.Do(func() { defaultWheel = New(DefaultTick, DefaultSlots) })
	return defaultWheel
}

// At arms tk to run on the first pass at or after t — never before t, and
// on a wheel that keeps up no more than one tick after it. An already armed
// task is moved to the new deadline. A running ticker needs no wake-up (it
// comes by every tick anyway); a parked one is restarted.
//
//xmovie:hotpath
func (w *Wheel) At(t time.Time, tk *Task) {
	deadline := t.Sub(w.epoch)
	w.mu.Lock()
	if !w.running {
		w.running = true
		w.cur = int64(time.Since(w.epoch) / w.tick)
		//xmovie:allow-alloc first arm after an idle period restarts the tick goroutine; steady state never takes this branch
		go w.run()
	}
	if tk.prev != nil {
		if tk.deadline == deadline {
			w.mu.Unlock()
			return
		}
		w.unlink(tk)
	} else {
		w.stats.Armed++
	}
	tk.deadline = deadline
	// A deadline behind the cursor has passed: its own slot would wait out
	// a whole revolution, the cursor's is looked at on the next pass.
	slot := int64(deadline / w.tick)
	if slot < w.cur {
		slot = w.cur
	}
	head := &w.slots[slot&w.mask]
	tk.next, tk.prev = *head, head
	if tk.next != nil {
		tk.next.prev = &tk.next
	}
	*head = tk
	w.active++
	w.mu.Unlock()
}

// unlink takes an armed task out of its slot. Caller holds w.mu.
func (w *Wheel) unlink(tk *Task) {
	*tk.prev = tk.next
	if tk.next != nil {
		tk.next.prev = tk.prev
	}
	tk.next, tk.prev = nil, nil
	w.active--
}

// Cancel disarms tk and reports whether it was armed. After true Fn will
// not run and the wheel holds no reference to the task; after false the
// task was idle or its run has already been dispatched — Fn may be running
// or about to.
func (w *Wheel) Cancel(tk *Task) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if tk.prev == nil {
		return false
	}
	w.unlink(tk)
	w.stats.Canceled++
	return true
}

// run advances the wheel while tasks are armed, then parks. One runtime
// timer total, re-armed per tick.
func (w *Wheel) run() {
	//xmovie:allow-timer the wheel's own tick driver: the ONE runtime timer every paced stream shares
	timer := time.NewTimer(w.tick)
	defer timer.Stop()
	var due []*Task
	for {
		w.mu.Lock()
		if w.active == 0 {
			w.running = false
			w.mu.Unlock()
			return
		}
		// Every slot since the last pass, and the one now falls in as far
		// as now: the cursor stays on it for the next pass to finish.
		now := time.Since(w.epoch)
		for last := int64(now / w.tick); ; w.cur++ {
			due = w.fireSlot(w.cur, now, due)
			if w.cur >= last {
				break
			}
		}
		w.stats.Ticks++
		w.mu.Unlock()
		for i, tk := range due {
			tk.Fn()
			due[i] = nil // a finished stream's task must not linger in the tail
		}
		due = due[:0]
		timer.Reset(w.tick)
		<-timer.C
	}
}

// fireSlot unlinks every task in the slot whose deadline has arrived by now
// and appends it to due, for the caller to run once w.mu is released.
// Caller holds w.mu.
//
//xmovie:hotpath
func (w *Wheel) fireSlot(slot int64, now time.Duration, due []*Task) []*Task {
	for tk := w.slots[slot&w.mask]; tk != nil; {
		next := tk.next
		// A later revolution's task hashed here stays.
		if tk.deadline <= now {
			w.unlink(tk)
			w.stats.Fired++
			due = append(due, tk)
		}
		tk = next
	}
	return due
}

// Wait blocks until d has elapsed or cancel is signalled (closed or sent
// to); it reports false when canceled first. A nil cancel waits
// unconditionally. It never returns true before d has elapsed. One pooled
// waiter, no allocation in the steady state.
//
//xmovie:hotpath
func (w *Wheel) Wait(d time.Duration, cancel <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := waiterPool.Get().(*waiter)
	w.At(time.Now().Add(d), &t.Task)
	elapsed := true
	select {
	case <-t.ch:
	case <-cancel:
		elapsed = false
		if !w.Cancel(&t.Task) {
			// Lost the race: the signal is in flight (or landed). Drain it
			// so the waiter goes back to the pool empty.
			<-t.ch
		}
	}
	waiterPool.Put(t)
	return elapsed
}

// Timer is one armed wheel timer for callers that need the channel form
// (select against other events). Stop releases it; the timer must not be
// used after Stop, and C fires at most once.
type Timer struct {
	w *Wheel
	t *waiter
}

// NewTimer arms a timer firing once after d.
func (w *Wheel) NewTimer(d time.Duration) *Timer {
	//xmovie:pool-escape ownership transfers to the Timer; Stop pools the waiter unless its signal may still be in flight
	t := waiterPool.Get().(*waiter)
	w.At(time.Now().Add(d), &t.Task)
	return &Timer{w: w, t: t}
}

// C returns the firing channel (signalled by send, capacity 1).
func (t *Timer) C() <-chan struct{} { return t.t.ch }

// Stop cancels the timer. Safe whether or not the timer fired, and whether
// or not the caller consumed C(); the Timer is dead afterwards.
func (t *Timer) Stop() {
	if t.t == nil {
		return
	}
	if t.w.Cancel(&t.t.Task) {
		waiterPool.Put(t.t)
	} else {
		// Already fired. The signal is in C(), consumed by the caller, or —
		// in a narrow race — still being sent by the wheel. Drain what is
		// there and let the GC take the waiter: pooling it here could hand a
		// waiter with a signal still in flight to a fresh arm.
		select {
		case <-t.t.ch:
		default:
		}
	}
	t.t = nil
}

// Stats snapshots the wheel's counters.
func (w *Wheel) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}
