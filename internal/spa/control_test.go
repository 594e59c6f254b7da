package spa

import (
	"runtime"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/timewheel"
)

// awaitSent blocks until stream id has transmitted n frames.
func awaitSent(t *testing.T, a *Agent, id int64, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st, err := a.Stats(id); err == nil && st.Sent >= n {
			return
		}
	}
	t.Fatalf("stream %d never sent %d frames", id, n)
}

// TestStopUnwindsBlockedProducer: the stream's producer is the one part of
// a sender that may block, and Stop must still end the stream while it does
// — parked at the live edge of a recording movie (with a seek posted that
// it cannot carry out until a frame arrives), or inside a bounded storage
// read.
func TestStopUnwindsBlockedProducer(t *testing.T) {
	stopWithin := func(t *testing.T, a *Agent, log *eventLog, id int64, bound time.Duration) {
		t.Helper()
		begin := time.Now()
		if _, err := a.Stop(id); err != nil {
			t.Fatal(err)
		}
		if ev := log.await(t, EventAborted, id); ev.Detail != "stopped" {
			t.Fatalf("terminal event %+v", ev)
		}
		if d := time.Since(begin); d > bound {
			t.Fatalf("stream unwound %v after Stop, want within %v", d, bound)
		}
	}

	t.Run("live edge", func(t *testing.T) {
		a, sim, log, _ := newTestAgent(t)
		st := moviedb.NewMemStore()
		if err := st.Create(&moviedb.Movie{Name: "live", Frames: frames(3)}); err != nil {
			t.Fatal(err)
		}
		rec, err := st.Record("live")
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		m, err := st.Get("live")
		if err != nil {
			t.Fatal(err)
		}
		done := receive(t, sim, "live/v", netsim.Config{}, mtp.ReceiverConfig{})
		if err := a.Play(1, "live/v", m.Open(), PlayOptions{FrameRate: 200}); err != nil {
			t.Fatal(err)
		}
		awaitSent(t, a, 1, 3)
		time.Sleep(10 * time.Millisecond) // the producer is parked at the edge
		if err := a.SeekStream(1, 1); err != nil {
			t.Fatal(err)
		}
		stopWithin(t, a, log, 1, time.Second)
		if rst := <-done; rst.Delivered != 3 || rst.Lost != 0 {
			t.Fatalf("recv stats %+v", rst)
		}
	})

	t.Run("bounded read", func(t *testing.T) {
		sim := NewSimNet()
		defer sim.Close()
		log := &eventLog{}
		a := New(Config{Dialer: sim, Events: log.add, ReadTimeout: 100 * time.Millisecond})
		defer a.Drain()
		inner := &slowSource{frames: frames(30), delay: map[int64]time.Duration{5: 400 * time.Millisecond}}
		done := receive(t, sim, "slow/v", netsim.Config{}, mtp.ReceiverConfig{})
		if err := a.Play(2, "slow/v", inner, PlayOptions{FrameRate: 200}); err != nil {
			t.Fatal(err)
		}
		awaitSent(t, a, 2, 5)
		time.Sleep(10 * time.Millisecond) // the producer is inside the slow read
		stopWithin(t, a, log, 2, time.Second)
		if rst := <-done; rst.Delivered != 5 || rst.Lost != 0 {
			t.Fatalf("recv stats %+v", rst)
		}
	})
}

// TestDrainLeavesNothingOnTheWheel: once Drain has returned, the shared
// wheel holds no armed emitter (every arm fired or was canceled), the
// goroutines of the streams are gone, and nothing — not the wheel's slots,
// not the tail of its due list — keeps a finished stream's source alive.
func TestDrainLeavesNothingOnTheWheel(t *testing.T) {
	before := runtime.NumGoroutine()
	sim := NewSimNet()
	log := &eventLog{}
	a := New(Config{Dialer: sim, Events: log.add})

	const streams = 8
	collected := make(chan struct{}, streams)
	var dones []chan mtp.RecvStats
	for id := int64(1); id <= streams; id++ {
		addr := string(rune('a'+id)) + "/v"
		dones = append(dones, receive(t, sim, addr, netsim.Config{}, mtp.ReceiverConfig{}))
		src := source(5000, 64)
		runtime.SetFinalizer(src, func(*closeTracker) { collected <- struct{}{} })
		if err := a.Play(id, addr, src, PlayOptions{FrameRate: 100}); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= streams; id++ {
		awaitSent(t, a, id, 3)
	}
	a.Drain()
	if st := timewheel.Default().Stats(); st.Armed != st.Fired+st.Canceled {
		t.Fatalf("wheel still holds an armed task after Drain: %+v", st)
	}
	for _, done := range dones {
		<-done
	}
	sim.Close()

	deadline := time.Now().Add(5 * time.Second)
	for n := 0; n < streams; {
		runtime.GC()
		select {
		case <-collected:
			n++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d finished streams' sources were collected", n, streams)
			}
		}
	}
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Drain, %d before the streams", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
