package estelle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file guard the unit's wake discipline: a waker sends a
// token only to an idle unit, and the unit goes idle only after it has
// found its work queue empty under u.mu. A unit that idled without that
// re-check would strand work queued while it ran, so each test waits for
// every produced interaction to fire and fails on a stall.

// schedVariants runs f with an unlimited scheduler and with one virtual
// processor, where units also wait for the processor token while running.
func schedVariants(t *testing.T, f func(t *testing.T, opts ...SchedOption)) {
	t.Run("unlimited", func(t *testing.T) { f(t) })
	t.Run("procs1", func(t *testing.T) { f(t, WithProcessors(1)) })
}

// waitCount polls until got reaches want, failing after timeout.
func waitCount(t *testing.T, what string, got func() int64, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for got() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d of %d after %v: a wake was lost", what, got(), want, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// sinkDef consumes Ping interactions, counting each firing.
func sinkDef(fired *atomic.Int64) *ModuleDef {
	return &ModuleDef{
		Name:   "Sink",
		Attr:   SystemProcess,
		IPs:    []IPDef{{Name: "P", Channel: pingChannel, Role: "callee"}},
		States: []string{"S"},
		Trans: []Trans{{
			Name:   "take",
			When:   On("P", "Ping"),
			Action: func(*Ctx) { fired.Add(1) },
		}},
	}
}

// TestNoLostWakeUnderConcurrentInject injects from many goroutines into the
// modules of one unit, in bursts with pauses, so the unit keeps switching
// between running passes and idling while wakes arrive.
func TestNoLostWakeUnderConcurrentInject(t *testing.T) {
	schedVariants(t, func(t *testing.T, opts ...SchedOption) {
		const producers, bursts, burst, sinks = 8, 40, 16, 4
		var fired atomic.Int64
		rt := NewRuntime()
		var ips []*IP
		for i := 0; i < sinks; i++ {
			m, err := rt.AddSystem(sinkDef(&fired), fmt.Sprintf("sink%d", i))
			if err != nil {
				t.Fatal(err)
			}
			ips = append(ips, m.IP("P"))
		}
		s := NewScheduler(rt, MapSingleUnit, append(opts, WithBatch(1))...)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for b := 0; b < bursts; b++ {
					for i := 0; i < burst; i++ {
						ips[(p+i)%sinks].Inject("Ping", int64(i))
					}
					if b%4 == p%4 {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}(p)
		}
		wg.Wait()
		waitCount(t, "fired", fired.Load, producers*bursts*burst, 10*time.Second)
	})
}

// notifyBody is an external body fed by goroutines outside the scheduler:
// producers add to pending and call Notify; Step takes all of it.
type notifyBody struct {
	pending atomic.Int64
	taken   atomic.Int64
}

func (b *notifyBody) Step(*Ctx) bool {
	n := b.pending.Swap(0)
	b.taken.Add(n)
	return n > 0
}

// TestNoLostWakeUnderConcurrentNotify is the Notify-path twin: every unit
// of work announced by Notify must be taken by a later Step. Each round's
// producers notify at once and the round waits for all of it, so the last
// Notify of every round is one a running unit may be about to miss.
func TestNoLostWakeUnderConcurrentNotify(t *testing.T) {
	schedVariants(t, func(t *testing.T, opts ...SchedOption) {
		const producers, rounds, bodies = 8, 200, 3
		rt := NewRuntime()
		var insts []*Instance
		var bs []*notifyBody
		for i := 0; i < bodies; i++ {
			b := &notifyBody{}
			m, err := rt.AddSystem(&ModuleDef{Name: "Ext", Attr: SystemProcess, External: b}, fmt.Sprintf("ext%d", i))
			if err != nil {
				t.Fatal(err)
			}
			insts, bs = append(insts, m), append(bs, b)
		}
		s := NewScheduler(rt, MapSingleUnit, opts...)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		taken := func() int64 {
			var n int64
			for _, b := range bs {
				n += b.taken.Load()
			}
			return n
		}
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					bs[i].pending.Add(1)
					insts[i].Notify()
				}((p + r) % bodies)
			}
			wg.Wait()
			waitCount(t, fmt.Sprintf("round %d taken", r), taken, int64((r+1)*producers), 5*time.Second)
		}
	})
}

// busyAndTimer builds the fixture of TestDelayFiresWhileUnitBusy: a module
// that spins, counting its firings, until the delayed transition of a
// second module fires.
func busyAndTimer(t *testing.T, rt *Runtime, delay time.Duration) (<-chan struct{}, *atomic.Int64) {
	t.Helper()
	var spinning atomic.Bool
	spinning.Store(true)
	spins := new(atomic.Int64)
	busy := &ModuleDef{
		Name: "Busy", Attr: SystemProcess, States: []string{"S"},
		Trans: []Trans{{
			Name:     "spin",
			Provided: func(*Ctx) bool { return spinning.Load() },
			Action:   func(*Ctx) { spins.Add(1) },
		}},
	}
	fired := make(chan struct{})
	timer := &ModuleDef{
		Name: "Timer", Attr: SystemProcess, States: []string{"Wait", "Done"},
		Trans: []Trans{{
			Name: "timeout", From: []string{"Wait"}, To: "Done",
			Delay: func(*Ctx) time.Duration { return delay },
			Action: func(*Ctx) {
				spinning.Store(false)
				close(fired)
			},
		}},
	}
	if _, err := rt.AddSystem(busy, "busy"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSystem(timer, "timer"); err != nil {
		t.Fatal(err)
	}
	return fired, spins
}

// TestLazyClockMaturesDelayWhileBusy checks that reading the clock only
// for pending delay clauses still matures them on a unit that never idles:
// on the real clock, and on a ManualClock the test advances while the unit
// spins. The spinner must keep firing throughout: a unit that idled with
// it still queued would only get back to it on the delay's own wake.
func TestLazyClockMaturesDelayWhileBusy(t *testing.T) {
	schedVariants(t, func(t *testing.T, opts ...SchedOption) {
		t.Run("real", func(t *testing.T) {
			rt := NewRuntime()
			fired, spins := busyAndTimer(t, rt, 20*time.Millisecond)
			s := NewScheduler(rt, MapSingleUnit, opts...)
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			select {
			case <-fired:
			case <-time.After(5 * time.Second):
				t.Fatal("delay transition starved while the unit stayed busy")
			}
			if n := spins.Load(); n < 50 {
				t.Fatalf("busy module fired %d times in 20ms: the unit idled with work queued", n)
			}
		})
		t.Run("manual", func(t *testing.T) {
			clk := NewManualClock()
			rt := NewRuntime(WithClock(clk))
			fired, _ := busyAndTimer(t, rt, time.Minute)
			s := NewScheduler(rt, MapSingleUnit, opts...)
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			select {
			case <-fired:
				t.Fatal("delay fired before the clock reached it")
			case <-time.After(20 * time.Millisecond):
			}
			clk.Advance(time.Minute)
			select {
			case <-fired:
			case <-time.After(5 * time.Second):
				t.Fatal("delay transition starved after the manual clock passed it")
			}
		})
	})
}

// countingClock counts reads of the real clock.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return time.Now()
}

// TestSchedulerReadsNoClockWithoutDelays pins the lazy clock: modules with
// no delay clause run any number of passes without one clock read.
func TestSchedulerReadsNoClockWithoutDelays(t *testing.T) {
	clk := &countingClock{}
	rt := NewRuntime(WithClock(clk))
	var budget atomic.Int64
	budget.Store(2000)
	done := make(chan struct{})
	l, err := rt.AddSystem(benchBudgetEchoDef("left", &budget, done), "l")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.AddSystem(benchBudgetEchoDef("right", &budget, done), "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(l.IP("P"), r.IP("P")); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(rt, MapPerInstance)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	l.IP("P").Inject("Tok")
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("echo did not finish")
	}
	if n := clk.reads.Load(); n != 0 {
		t.Fatalf("%d clock reads for passes without a delay clause, want 0", n)
	}
}
