package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"xmovie/internal/directory"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/spa"
	"xmovie/internal/transport"
)

// loadEnv builds a server environment shaped like the load harness's: a
// sharded movie store with one long movie to play, a striped directory the
// server mirrors attributes into, and a SimNet for stream targets.
func loadEnv(t *testing.T) (*mcam.ServerEnv, *spa.SimNet) {
	t.Helper()
	store := moviedb.NewShardedStore(0)
	// 500 frames at 25 fps = 20s: long enough that Stop always beats
	// natural completion.
	if err := store.Create(moviedb.Synthesize(moviedb.SynthConfig{
		Name: "feature", Frames: 500, FrameRate: 25, FrameSize: 64,
	})); err != nil {
		t.Fatal(err)
	}
	sim := spa.NewSimNet()
	t.Cleanup(sim.Close)
	base := directory.MustParseDN("c=DE/o=xmovie")
	return &mcam.ServerEnv{
		Store:   store,
		Dialer:  sim,
		DUA:     directory.NewDUA(directory.NewDSA("load", base)),
		DirBase: base,
	}, sim
}

// TestConcurrentSessions runs ≥64 concurrent clients over the in-memory
// transport through a full browse→order→play→pause→resume→stop scenario on
// both stacks, asserting zero errors — the tier-1 guard for the
// connection-manager refactor. Every client waits after its dial until all
// are open, so the server's peak really is all of them at once.
// Short-mode friendly (a few seconds).
func TestConcurrentSessions(t *testing.T) {
	const clients = 64
	for _, stack := range []StackKind{StackGenerated, StackHandcoded} {
		t.Run(stack.String(), func(t *testing.T) {
			env, sim := loadEnv(t)
			srv, err := NewServer(ServerConfig{Stack: stack, Env: env})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			var wg, open sync.WaitGroup
			open.Add(clients)
			errs := make([]error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = runScenario(srv, sim, stack, i, &open)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			}
			st := srv.Observe().Sessions
			if st.Accepted != clients || st.Rejected != 0 {
				t.Errorf("stats = %+v, want %d accepted / 0 rejected", st, clients)
			}
			if st.Peak != clients {
				t.Errorf("peak active sessions = %d, want all %d open at once", st.Peak, clients)
			}
			// Every session's teardown completes once the clients are gone.
			waitFor(t, 10*time.Second, func() bool { return srv.Observe().Sessions.Active == 0 })
		})
	}
}

// runScenario is one session: dial, wait at the open barrier until every
// session has dialed, browse the catalogue, order (create/select/modify) a
// movie of its own, play the feature with pause/resume, stop, and release.
func runScenario(srv *Server, sim *spa.SimNet, stack StackKind, i int, open *sync.WaitGroup) error {
	arrived := false
	arrive := func() {
		if !arrived {
			arrived = true
			open.Done()
		}
	}
	defer arrive() // a failed dial must not wedge the other sessions
	cliEnd, srvEnd := transport.Pipe(0)
	if err := srv.ServeConn(srvEnd); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	client, err := NewClientConn(cliEnd, ClientConfig{Stack: stack})
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			client.Close()
		}
	}()
	arrive()
	open.Wait()

	// Browse.
	resp, err := client.Call(&mcam.Request{Op: mcam.OpListMovies})
	if err != nil || !resp.OK() {
		return fmt.Errorf("list = %+v, %v", resp, err)
	}
	resp, err = client.Call(&mcam.Request{Op: mcam.OpQueryAttributes, Movie: "feature"})
	if err != nil || !resp.OK() {
		return fmt.Errorf("query = %+v, %v", resp, err)
	}
	// Order: a movie of this session's own, with directory mirroring.
	mine := fmt.Sprintf("order-%03d", i)
	resp, err = client.Call(&mcam.Request{Op: mcam.OpCreate, Movie: mine,
		Attrs: []mcam.Attr{{Name: "title", Value: mine}}})
	if err != nil || !resp.OK() {
		return fmt.Errorf("create = %+v, %v", resp, err)
	}
	resp, err = client.Call(&mcam.Request{Op: mcam.OpSelect, Movie: mine})
	if err != nil || !resp.OK() {
		return fmt.Errorf("select = %+v, %v", resp, err)
	}
	resp, err = client.Call(&mcam.Request{Op: mcam.OpModifyAttributes,
		Attrs: []mcam.Attr{{Name: "year", Value: "1994"}}})
	if err != nil || !resp.OK() {
		return fmt.Errorf("modify = %+v, %v", resp, err)
	}
	// Play the long feature to this session's own stream address.
	addr := fmt.Sprintf("client-%d/video", i)
	end, err := sim.Listen(addr, netsim.Config{})
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	recvDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
		recvDone <- st
	}()
	resp, err = client.Call(&mcam.Request{Op: mcam.OpPlay, Movie: "feature", StreamAddr: addr})
	if err != nil || !resp.OK() {
		return fmt.Errorf("play = %+v, %v", resp, err)
	}
	streamID := resp.StreamID
	resp, err = client.Call(&mcam.Request{Op: mcam.OpPause, StreamID: streamID})
	if err != nil || !resp.OK() {
		return fmt.Errorf("pause = %+v, %v", resp, err)
	}
	resp, err = client.Call(&mcam.Request{Op: mcam.OpResume, StreamID: streamID})
	if err != nil || !resp.OK() {
		return fmt.Errorf("resume = %+v, %v", resp, err)
	}
	resp, err = client.Call(&mcam.Request{Op: mcam.OpStop, StreamID: streamID})
	if err != nil || !resp.OK() {
		return fmt.Errorf("stop = %+v, %v", resp, err)
	}
	select {
	case <-recvDone:
	case <-time.After(15 * time.Second):
		return fmt.Errorf("stream never terminated after stop")
	}
	closed = true
	if err := client.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", timeout)
}

// TestAdmissionBound verifies bounded admission: MaxSessions connections
// are admitted, the next is refused with ErrServerFull, and freeing a slot
// re-opens admission.
func TestAdmissionBound(t *testing.T) {
	env, _ := loadEnv(t)
	srv, err := NewServer(ServerConfig{Stack: StackHandcoded, Env: env, Limits: Limits{MaxSessions: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conns := make([]transport.Conn, 0, 4)
	for i := 0; i < 4; i++ {
		cli, srvEnd := transport.Pipe(0)
		if err := srv.ServeConn(srvEnd); err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
		conns = append(conns, cli)
	}
	_, extraSrv := transport.Pipe(0)
	if err := srv.ServeConn(extraSrv); !errors.Is(err, ErrServerFull) {
		t.Fatalf("5th session = %v, want ErrServerFull", err)
	}
	st := srv.Observe().Sessions
	if st.Accepted != 4 || st.Rejected != 1 || st.Active != 4 || st.Peak != 4 {
		t.Errorf("stats = %+v", st)
	}
	// Freeing one slot re-opens admission.
	conns[0].Close()
	waitFor(t, 5*time.Second, func() bool { return srv.Observe().Sessions.Active < 4 })
	cli, srvEnd := transport.Pipe(0)
	if err := srv.ServeConn(srvEnd); err != nil {
		t.Fatalf("after free: %v", err)
	}
	cli.Close()
}

// TestDrainWaitsForSessions: Drain refuses new sessions immediately, waits
// for the active one to finish, and completes without force-closing it.
func TestDrainWaitsForSessions(t *testing.T) {
	env, _ := loadEnv(t)
	srv, err := NewServer(ServerConfig{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	cliEnd, srvEnd := transport.Pipe(0)
	if err := srv.ServeConn(srvEnd); err != nil {
		t.Fatal(err)
	}
	client, err := NewClientConn(cliEnd, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(20 * time.Second) }()

	// The draining server refuses new work. (An attempt racing ahead of the
	// drain flag may be admitted; closing our end ends it immediately.)
	waitFor(t, 5*time.Second, func() bool {
		extraCli, extraSrv := transport.Pipe(0)
		err := srv.ServeConn(extraSrv)
		extraCli.Close()
		return errors.Is(err, ErrServerClosed)
	})
	// ...while the active session still completes normally.
	resp, err := client.Call(&mcam.Request{Op: mcam.OpListMovies})
	if err != nil || !resp.OK() {
		t.Fatalf("call during drain = %+v, %v", resp, err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("close during drain: %v", err)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drain did not complete after last session closed")
	}
	st := srv.Observe().Sessions
	if st.Completed < 1 || st.Active != 0 {
		t.Errorf("stats after drain = %+v", st)
	}
}

// TestSequentialSessionsReclaimResources cycles many sessions through a
// generated-stack server and checks the runtime's live-instance view stays
// empty afterwards — the entity subtrees really are released, not
// accumulated (the pre-connection-manager behavior).
func TestSequentialSessionsReclaimResources(t *testing.T) {
	env, _ := loadEnv(t)
	srv, err := NewServer(ServerConfig{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const rounds = 40
	for i := 0; i < rounds; i++ {
		cliEnd, srvEnd := transport.Pipe(0)
		if err := srv.ServeConn(srvEnd); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		client, err := NewClientConn(cliEnd, ClientConfig{})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		resp, err := client.Call(&mcam.Request{Op: mcam.OpListMovies})
		if err != nil || !resp.OK() {
			t.Fatalf("round %d: list = %+v, %v", i, resp, err)
		}
		if err := client.Close(); err != nil {
			t.Fatalf("round %d: close: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return srv.Observe().Sessions.Active == 0 })
	if st := srv.Observe().Sessions; st.Completed != rounds {
		t.Errorf("completed = %d, want %d", st.Completed, rounds)
	}
	// All per-connection entities are gone from the runtime.
	waitFor(t, 5*time.Second, func() bool { return len(srv.Runtime().Instances()) == 0 })
}
