package core

import (
	"sync"
	"testing"
	"time"

	"xmovie/internal/equipment"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/spa"
)

func testEnv(t *testing.T) (*mcam.ServerEnv, *spa.SimNet) {
	t.Helper()
	store := moviedb.NewMemStore()
	moviedb.MustSeed(store, "film", 4, 30)
	sim := spa.NewSimNet()
	t.Cleanup(sim.Close)
	eca := equipment.NewECA("site")
	if err := eca.Register(equipment.NewCamera("cam", 256)); err != nil {
		t.Fatal(err)
	}
	return &mcam.ServerEnv{
		Store:  store,
		Dialer: sim,
		EUA:    equipment.NewEUA(eca, "server"),
	}, sim
}

func TestServerOverTCPBothStacks(t *testing.T) {
	for _, stack := range []StackKind{StackGenerated, StackHandcoded} {
		t.Run(stack.String(), func(t *testing.T) {
			env, _ := testEnv(t)
			srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Stack: stack, Env: env})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			for _, clientStack := range []StackKind{StackGenerated, StackHandcoded} {
				client, err := Dial(srv.Addr(), ClientConfig{Stack: clientStack})
				if err != nil {
					t.Fatalf("dial %v->%v: %v", clientStack, stack, err)
				}
				resp, err := client.Call(&mcam.Request{Op: mcam.OpListMovies})
				if err != nil || !resp.OK() || len(resp.Movies) != 4 {
					t.Fatalf("%v->%v list = %+v, %v", clientStack, stack, resp, err)
				}
				if err := client.Close(); err != nil {
					t.Errorf("%v->%v close: %v", clientStack, stack, err)
				}
			}
		})
	}
}

func TestMultipleParallelClients(t *testing.T) {
	// Fig. 2's shape: several clients served simultaneously by one server,
	// per-connection server entities created dynamically.
	env, _ := testEnv(t)
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := Dial(srv.Addr(), ClientConfig{})
			if err != nil {
				errs[i] = err
				return
			}
			defer client.Close()
			for k := 0; k < 10; k++ {
				resp, err := client.Call(&mcam.Request{Op: mcam.OpListMovies})
				if err != nil {
					errs[i] = err
					return
				}
				if !resp.OK() {
					errs[i] = mcam.ErrClosed
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

func TestPlayOverTCPControlPlane(t *testing.T) {
	env, sim := testEnv(t)
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	end, err := sim.Listen("tcp-client/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
		done <- st
	}()
	resp, err := client.Call(&mcam.Request{Op: mcam.OpPlay, Movie: "film-0",
		StreamAddr: "tcp-client/video"})
	if err != nil || !resp.OK() {
		t.Fatalf("play = %+v, %v", resp, err)
	}
	select {
	case st := <-done:
		if st.Delivered != 30 {
			t.Errorf("delivered %d frames", st.Delivered)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stream did not complete")
	}
	// The completion event reaches the generated-stack client.
	ev, err := client.App().AwaitEvent(10 * time.Second)
	for err == nil && ev.Kind != mcam.EventStreamCompleted {
		ev, err = client.App().AwaitEvent(10 * time.Second)
	}
	if err != nil {
		t.Fatalf("completion event: %v", err)
	}
}

// TestServerNilEnv verifies a nil config Env is legal: the server builds
// its own environment (with a default store).
func TestServerNilEnv(t *testing.T) {
	srv, err := NewServer(ServerConfig{Stack: StackHandcoded})
	if err != nil {
		t.Fatalf("nil-env server: %v", err)
	}
	defer srv.Close()
	env := srv.Env()
	if env == nil || env.Store == nil {
		t.Fatalf("server did not build an environment: %+v", env)
	}
}
