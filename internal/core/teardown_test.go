package core

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xmovie/internal/estelle"
	"xmovie/internal/mcam"
	"xmovie/internal/transport"
)

// readLoops counts goroutines parked in a transport reader.
func readLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("(*connBody).readLoop"))
}

// settledGoroutines waits until goroutines left over by earlier tests have
// exited, so the goroutine count holds steady, and returns it.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(10 * time.Second); same < 20; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count still moving after 10s (at %d)", n)
		}
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestIdlePipeAssociationGoroutines pins what an idle generated-stack
// association costs in goroutines over a pipe: one on the server (its
// unit) and one on the client (its unit) — no transport reader and no
// reaper. After the clients go, orderly or abruptly, the count returns to
// where it started.
func TestIdlePipeAssociationGoroutines(t *testing.T) {
	env, _ := loadEnv(t)
	srv, err := NewServer(ServerConfig{Env: env, TeardownGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := settledGoroutines(t)

	const n = 16
	clients := make([]*Client, n)
	ends := make([]transport.Conn, n)
	for i := range clients {
		cliEnd, srvEnd := transport.Pipe(0)
		if err := srv.ServeConn(srvEnd); err != nil {
			t.Fatal(err)
		}
		c, err := NewClientConn(cliEnd, ClientConfig{CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := c.Call(&mcam.Request{Op: mcam.OpListMovies}); err != nil || !resp.OK() {
			t.Fatalf("client %d: list = %+v, %v", i, resp, err)
		}
		clients[i], ends[i] = c, cliEnd
	}
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine()-base == 2*n })
	if got := srv.sched.Units(); got != n {
		t.Errorf("server units = %d, want %d (one per association)", got, n)
	}
	for i, c := range clients {
		if got := c.sched.Units(); got != 1 {
			t.Errorf("client %d units = %d, want 1", i, got)
		}
	}
	if r := readLoops(); r != 0 {
		t.Errorf("%d transport readers running over pipes, want 0", r)
	}

	for i, c := range clients {
		if i%2 == 0 {
			if err := c.Close(); err != nil {
				t.Errorf("client %d: close: %v", i, err)
			}
			continue
		}
		// Abrupt: the client dies with its transport, releasing nothing.
		ends[i].Close()
		c.sched.Stop()
	}
	waitFor(t, 10*time.Second, func() bool {
		return srv.Observe().Sessions.Active == 0 && runtime.NumGoroutine() == base
	})
	if got := srv.Observe().Sessions.Completed; got != n {
		t.Errorf("completed = %d, want %d", got, n)
	}
}

// shutdownProbe stands in for the session's stream teardown handle.
type shutdownProbe struct{ calls atomic.Int32 }

func (p *shutdownProbe) Shutdown() { p.calls.Add(1) }

// TestReaperGraceAndShortCircuit drives the session reaper directly. A
// session whose MCA never reports its end is torn down by force once the
// grace has passed; OnDead, before or after the transport is gone, reaps at
// once and without force.
func TestReaperGraceAndShortCircuit(t *testing.T) {
	const grace = 300 * time.Millisecond
	for _, tc := range []struct {
		name      string
		deadAfter time.Duration // < 0: before the transport is gone; 0: never
		forced    bool
	}{
		{"never-dead", 0, true},
		{"dead-after-gone", 20 * time.Millisecond, false},
		{"dead-before-gone", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, _ := loadEnv(t)
			srv, err := NewServer(ServerConfig{Env: env, TeardownGrace: grace})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, peer := transport.Pipe(0)
			defer peer.Close()
			sess, err := srv.admit(conn, "")
			if err != nil {
				t.Fatal(err)
			}
			probe := &shutdownProbe{}
			sess.force = probe
			root, err := srv.rt.AddSystem(&estelle.ModuleDef{Name: "Entity", Attr: estelle.SystemProcess}, "entity")
			if err != nil {
				t.Fatal(err)
			}
			if tc.deadAfter < 0 {
				sess.markDead()
			}
			begin := time.Now()
			srv.transportGone(sess, root)
			if tc.deadAfter > 0 {
				time.Sleep(tc.deadAfter)
				sess.markDead()
			}
			waitFor(t, 5*time.Second, func() bool { return srv.Observe().Sessions.Completed == 1 })
			took := time.Since(begin)
			if got := probe.calls.Load() == 1; got != tc.forced {
				t.Errorf("Shutdown forced = %v, want %v", got, tc.forced)
			}
			if tc.forced && took < grace {
				t.Errorf("forced teardown after %v, before the %v grace", took, grace)
			}
			if !tc.forced && took >= grace {
				t.Errorf("orderly teardown took %v, not short-circuited before the %v grace", took, grace)
			}
			if len(srv.rt.Instances()) != 0 {
				t.Error("entity subtree not released")
			}
		})
	}
}
