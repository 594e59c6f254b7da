package timewheel

import (
	"sort"
	"sync"
	"testing"
	"time"
)

func TestWaitElapses(t *testing.T) {
	w := New(time.Millisecond, 64)
	start := time.Now()
	if !w.Wait(5*time.Millisecond, nil) {
		t.Fatal("uncanceled Wait returned false")
	}
	if e := time.Since(start); e < 4*time.Millisecond {
		t.Fatalf("Wait(5ms) returned after %v", e)
	}
	st := w.Stats()
	if st.Armed != 1 || st.Fired != 1 {
		t.Fatalf("stats = %+v, want 1 armed / 1 fired", st)
	}
}

func TestWaitZeroAndNegative(t *testing.T) {
	w := New(time.Millisecond, 64)
	if !w.Wait(0, nil) || !w.Wait(-time.Second, nil) {
		t.Fatal("non-positive Wait must return true immediately")
	}
	if st := w.Stats(); st.Armed != 0 {
		t.Fatalf("non-positive waits armed %d timers", st.Armed)
	}
}

func TestWaitCanceled(t *testing.T) {
	w := New(time.Millisecond, 64)
	cancel := make(chan struct{})
	close(cancel)
	start := time.Now()
	if w.Wait(time.Hour, cancel) {
		t.Fatal("canceled Wait returned true")
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("canceled Wait took %v", e)
	}
}

// TestLongWaitRounds exercises deadlines beyond one ring revolution: a
// 64-slot wheel at 1ms must still fire a 100ms wait at ~100ms, not at the
// first revolution's slot pass (~36ms).
func TestLongWaitRounds(t *testing.T) {
	w := New(time.Millisecond, 64)
	start := time.Now()
	if !w.Wait(100*time.Millisecond, nil) {
		t.Fatal("Wait returned false")
	}
	if e := time.Since(start); e < 95*time.Millisecond {
		t.Fatalf("100ms wait fired after only %v (revolution bug)", e)
	}
}

func TestTimerFireAndStop(t *testing.T) {
	w := New(time.Millisecond, 64)
	tm := w.NewTimer(3 * time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	tm.Stop() // stopping a fired timer must be safe
	tm2 := w.NewTimer(time.Hour)
	tm2.Stop()
	tm2.Stop() // and idempotent
	if st := w.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", st.Canceled)
	}
}

// TestWheelParks verifies the tick goroutine shuts down when the wheel
// drains and restarts on the next arm.
func TestWheelParks(t *testing.T) {
	w := New(time.Millisecond, 64)
	w.Wait(2*time.Millisecond, nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		running := w.running
		w.mu.Unlock()
		if !running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker still running on a drained wheel")
		}
		time.Sleep(time.Millisecond)
	}
	// Re-arming after the park must work.
	if !w.Wait(2*time.Millisecond, nil) {
		t.Fatal("Wait after park failed")
	}
}

// TestConcurrentArmCancel hammers one wheel from many goroutines with a
// racing mix of waits that fire and waits that are canceled mid-flight, and
// checks the books balance: every armed timer is eventually fired or
// canceled exactly once, and pooled waiters never cross signals (a crossed
// signal shows up as a Wait returning before its deadline).
func TestConcurrentArmCancel(t *testing.T) {
	w := New(time.Millisecond, 64)
	const goroutines = 32
	const iters = 200
	var early atomic32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d := time.Duration(1+(g+i)%7) * time.Millisecond
				if (g+i)%3 == 0 {
					// Cancel roughly a third mid-flight, at a racy moment.
					cancel := make(chan struct{})
					go func() {
						time.Sleep(time.Duration((g * i) % 3000 * int(time.Microsecond)))
						close(cancel)
					}()
					start := time.Now()
					if w.Wait(d, cancel) && time.Since(start) < d-time.Millisecond {
						early.inc()
					}
				} else {
					start := time.Now()
					if !w.Wait(d, nil) {
						t.Error("uncanceled Wait returned false")
						return
					}
					if time.Since(start) < d-time.Millisecond {
						early.inc()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := early.load(); n > 0 {
		t.Fatalf("%d waits fired before their deadline (crossed pooled signal)", n)
	}
	st := w.Stats()
	if st.Fired+st.Canceled != st.Armed {
		t.Fatalf("books do not balance: %+v", st)
	}
}

// TestConcurrentTimers races NewTimer/Stop against firing from many
// goroutines; the invariant is simply no deadlock, no double signal, and
// balanced books.
func TestConcurrentTimers(t *testing.T) {
	w := New(time.Millisecond, 64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tm := w.NewTimer(time.Duration(1+i%5) * time.Millisecond)
				if i%2 == 0 {
					select {
					case <-tm.C():
					case <-time.After(2 * time.Second):
						t.Error("timer wedged")
						return
					}
					tm.Stop()
				} else {
					// Stop at a racy moment relative to the fire.
					time.Sleep(time.Duration(i%3) * time.Millisecond)
					tm.Stop()
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Fired+st.Canceled != st.Armed {
		t.Fatalf("books do not balance: %+v", st)
	}
}

// TestWaitNeverEarly is the regression test for deadlines taken from the
// cursor instead of the clock: a Wait armed late in a tick used to fire at
// the next tick boundary, microseconds later. Waits are armed at every phase
// of the tick; none may return before its duration has elapsed.
func TestWaitNeverEarly(t *testing.T) {
	w := New(time.Millisecond, 64)
	for i := 0; i < 400; i++ {
		time.Sleep(time.Duration(i%10) * 100 * time.Microsecond)
		start := time.Now()
		w.Wait(time.Millisecond, nil)
		if e := time.Since(start); e < time.Millisecond {
			t.Fatalf("wait %d: Wait(1ms) returned after %v", i, e)
		}
	}
}

// TestAtRunsWithinATick pins the absolute-deadline arm: a task never runs
// before its deadline, and the wheel adds at most one tick to it. The
// wake-up latency of the tick goroutine comes on top and is the
// scheduler's, so the bound is asserted on the median, with a looser one on
// the ninth decile.
func TestAtRunsWithinATick(t *testing.T) {
	w := New(time.Millisecond, 64)
	ran := make(chan time.Time, 1)
	tk := &Task{Fn: func() { ran <- time.Now() }}
	late := make([]time.Duration, 200)
	for i := range late {
		deadline := time.Now().Add(time.Duration(2000+i*37%1000) * time.Microsecond)
		w.At(deadline, tk)
		late[i] = (<-ran).Sub(deadline)
		if late[i] < 0 {
			t.Fatalf("task %d ran %v before its deadline", i, -late[i])
		}
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if p50, p90 := late[len(late)/2], late[len(late)*9/10]; p50 > time.Millisecond || p90 > 2*time.Millisecond {
		t.Fatalf("tasks ran late by p50 %v, p90 %v; want within one tick (two at p90)", p50, p90)
	}
}

// TestTaskMoveCancelRearm covers the caller-owned task's life cycle: At on
// an armed task moves it, Fn may re-arm its own task (callbacks run with no
// wheel lock held), Cancel reports whether a run was prevented, and the
// books balance with nothing left armed.
func TestTaskMoveCancelRearm(t *testing.T) {
	w := New(time.Millisecond, 64)
	runs := make(chan struct{}, 8)
	var tk Task
	left := 3
	tk.Fn = func() {
		runs <- struct{}{}
		if left--; left > 0 {
			w.At(time.Now().Add(time.Millisecond), &tk)
		}
	}
	w.At(time.Now().Add(time.Hour), &tk)
	w.At(time.Now().Add(2*time.Millisecond), &tk) // moved, not armed twice
	for i := 0; i < 3; i++ {
		select {
		case <-runs:
		case <-time.After(2 * time.Second):
			t.Fatalf("run %d never came", i)
		}
	}
	if w.Cancel(&tk) {
		t.Fatal("Cancel of an idle task reported true")
	}
	w.At(time.Now().Add(time.Hour), &tk)
	if !w.Cancel(&tk) {
		t.Fatal("Cancel of an armed task reported false")
	}
	if st := w.Stats(); st.Armed != 4 || st.Fired != 3 || st.Canceled != 1 {
		t.Fatalf("stats = %+v, want 4 armed / 3 fired / 1 canceled", st)
	}
	select {
	case <-runs:
		t.Fatal("canceled task ran")
	case <-time.After(5 * time.Millisecond):
	}
}

// TestArmsDoNotWakeTheTicker: a running ticker comes by every tick anyway,
// so arming must not rouse it. Thousands of arms while it runs cause no
// pass beyond the one per elapsed tick.
func TestArmsDoNotWakeTheTicker(t *testing.T) {
	w := New(time.Millisecond, 64)
	tasks := make([]Task, 1000)
	far := time.Now().Add(time.Hour)
	for i := range tasks {
		tasks[i].Fn = func() {}
		w.At(far, &tasks[i])
	}
	time.Sleep(3 * time.Millisecond) // the ticker is up
	before, start, arms := w.Stats().Ticks, time.Now(), 0
	for time.Since(start) < 50*time.Millisecond {
		for i := range tasks {
			w.At(far.Add(time.Duration(arms)), &tasks[i])
			arms++
		}
	}
	elapsed := time.Since(start)
	if passes := w.Stats().Ticks - before; passes > int64(elapsed/time.Millisecond)+1 {
		t.Fatalf("%d arms in %v caused %d passes", arms, elapsed, passes)
	}
	for i := range tasks {
		w.Cancel(&tasks[i])
	}
	if st := w.Stats(); st.Fired+st.Canceled != st.Armed {
		t.Fatalf("books do not balance: %+v", st)
	}
}

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() must return one process-wide wheel")
	}
}

// atomic32 is a tiny test counter (avoids importing sync/atomic names that
// collide with the package under test).
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc() { a.mu.Lock(); a.n++; a.mu.Unlock() }
func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}
