package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"xmovie/internal/estelle"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/presentation"
	"xmovie/internal/session"
	"xmovie/internal/transport"
)

// TestAssociationsShareProtocolMachineDefs: the protocol machines that
// capture nothing are one def per process. Two generated associations, on
// both sides, instantiate the very same *estelle.ModuleDef for SessionPM,
// PresentationPM and MCAClient; the server MCA, which captures its
// association's hooks, gets a def of its own.
func TestAssociationsShareProtocolMachineDefs(t *testing.T) {
	srv, err := NewServer(ServerConfig{Env: &mcam.ServerEnv{Store: moviedb.NewMemStore()}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defs := make(map[string]map[*estelle.ModuleDef]int)
	note := func(rt *estelle.Runtime) {
		for _, inst := range rt.Instances() {
			d := inst.Def()
			if defs[d.Name] == nil {
				defs[d.Name] = make(map[*estelle.ModuleDef]int)
			}
			defs[d.Name][d]++
		}
	}
	for i := 0; i < 2; i++ {
		srvEnd, cliEnd := transport.Pipe(0)
		if err := srv.ServeConn(srvEnd); err != nil {
			t.Fatal(err)
		}
		cli, err := NewClientConn(cliEnd, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		note(cli.rt)
	}
	note(srv.Runtime())
	for _, want := range []struct {
		def       *estelle.ModuleDef
		instances int
	}{
		{session.ProtocolMachineDef(), 4},
		{presentation.ProtocolMachineDef(), 4},
		{mcam.ClientModuleDef(), 2},
	} {
		got := defs[want.def.Name]
		if len(got) != 1 || got[want.def] != want.instances {
			t.Errorf("%s: %d defs for %v instances, want the shared def for all %d",
				want.def.Name, len(got), got, want.instances)
		}
	}
	if n := len(defs["MCAServer"]); n != 2 {
		t.Errorf("MCAServer: %d defs, want one per association", n)
	}
}

// TestConcurrentGeneratedAssociations opens 16 generated-stack clients at
// once, each with its own runtime, against one generated server. Each runs
// one Query and closes. Under the race detector this is the check that
// runtimes in one process share the protocol machines' defs safely; in
// any build, no goroutine outlives the associations and the server.
func TestConcurrentGeneratedAssociations(t *testing.T) {
	const clients = 16
	base := settledGoroutines(t)
	store := moviedb.NewMemStore()
	if err := store.Create(&moviedb.Movie{Name: "casablanca", FrameRate: 25, Frames: [][]byte{{1}},
		Attrs: moviedb.Attributes{"title": "Casablanca"}}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Env: &mcam.ServerEnv{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	// Every client's server side is admitted first; the clients then open
	// together, so their runtimes instantiate the shared defs at once.
	var wg, ready sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			srvEnd, cliEnd := transport.Pipe(0)
			err := srv.ServeConn(srvEnd)
			ready.Done()
			if err != nil {
				errs <- err
				return
			}
			<-start
			cli, err := NewClientConn(cliEnd, ClientConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			resp, err := cli.Call(&mcam.Request{Op: mcam.OpQueryAttributes, Movie: "casablanca"})
			if err == nil && !resp.OK() {
				err = fmt.Errorf("query: %+v", resp)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	ready.Wait()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitFor(t, 10*time.Second, func() bool { return srv.Observe().Sessions.Completed == clients })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= base })
}
