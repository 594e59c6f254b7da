package xmovie_test

import (
	"sync"
	"testing"
	"time"

	"xmovie"
	"xmovie/internal/core"
	"xmovie/internal/equipment"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/spa"
)

// The public Server and Client are core's, not wrappers around them: one
// definition per control-plane type.
var (
	_ *core.Server = (*xmovie.Server)(nil)
	_ *core.Client = (*xmovie.Client)(nil)
)

func newFacadeServer(t *testing.T, stack xmovie.StackKind) (*xmovie.Server, *xmovie.SimNet) {
	t.Helper()
	store := xmovie.NewMemStore()
	for _, name := range []string{"casablanca", "metropolis"} {
		if err := store.Create(xmovie.SynthMovie(name, 50, 25)); err != nil {
			t.Fatal(err)
		}
	}
	sim := xmovie.NewSimNet()
	t.Cleanup(sim.Close)
	eca := equipment.NewECA("studio")
	if err := eca.Register(equipment.NewCamera("cam1", 256)); err != nil {
		t.Fatal(err)
	}
	srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
		Addr:  "127.0.0.1:0",
		Stack: stack,
		Env: &xmovie.ServerEnv{
			Store:  store,
			Dialer: sim,
			EUA:    equipment.NewEUA(eca, "server"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sim
}

func TestFacadeFullWorkflow(t *testing.T) {
	srv, sim := newFacadeServer(t, xmovie.StackGenerated)
	client, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	movies, err := client.List()
	if err != nil || len(movies) != 2 {
		t.Fatalf("List = %v, %v", movies, err)
	}
	if err := client.Create("newfilm", 30, map[string]string{"year": "1994"}); err != nil {
		t.Fatal(err)
	}
	length, rate, err := client.Select("casablanca")
	if err != nil || length != 50 || rate != 25 {
		t.Fatalf("Select = %d/%d, %v", length, rate, err)
	}
	attrs, err := client.Query("newfilm")
	if err != nil || attrs["year"] != "1994" {
		t.Fatalf("Query = %v, %v", attrs, err)
	}
	if err := client.Modify("newfilm", map[string]string{"seen": "yes"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Record("newfilm", "cam1", 10); err != nil {
		t.Fatal(err)
	}

	// Playback with pause/resume and the completion event.
	end, err := sim.Listen("facade/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
		done <- st
	}()
	id, err := client.Play("casablanca", "facade/video")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Pause(id); err != nil {
		t.Fatal(err)
	}
	if err := client.Resume(id); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-done:
		if st.Delivered != 50 {
			t.Errorf("delivered %d frames", st.Delivered)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not complete")
	}
	ev, err := client.AwaitEvent(10 * time.Second)
	for err == nil && ev.Kind != xmovie.EventStreamCompleted {
		ev, err = client.AwaitEvent(10 * time.Second)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Delete("newfilm"); err != nil {
		t.Fatal(err)
	}
	if err := client.Delete("newfilm"); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestFacadeHandcodedStack(t *testing.T) {
	srv, _ := newFacadeServer(t, xmovie.StackHandcoded)
	client, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{Stack: xmovie.StackHandcoded})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	movies, err := client.List()
	if err != nil || len(movies) != 2 {
		t.Fatalf("List = %v, %v", movies, err)
	}
}

func TestFacadeConcurrentClients(t *testing.T) {
	srv, _ := newFacadeServer(t, xmovie.StackGenerated)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{})
			if err != nil {
				errs[i] = err
				return
			}
			defer client.Close()
			_, errs[i] = client.List()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

func TestStatusErrorSurfacing(t *testing.T) {
	srv, _ := newFacadeServer(t, xmovie.StackGenerated)
	client, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.Select("nonexistent"); err == nil {
		t.Error("Select of missing movie succeeded")
	}
	resp, err := client.Call(&xmovie.Request{Op: xmovie.OpSelect, Movie: "nonexistent"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != xmovie.StatusNoSuchMovie {
		t.Errorf("status = %v", resp.Status)
	}
}

var _ spa.StreamDialer = xmovie.UDPDialer()

// TestFacadeLazyStreamingTotals drives a lazily synthesized movie through
// the public API — play, pause, live seek, resume — and reads the server's
// aggregated data-plane counters.
func TestFacadeLazyStreamingTotals(t *testing.T) {
	store := xmovie.NewMemStore()
	if err := store.Create(xmovie.SynthMovie("feature", 1000, 500)); err != nil {
		t.Fatal(err)
	}
	sim := xmovie.NewSimNet()
	defer sim.Close()
	srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
		Env: &xmovie.ServerEnv{Store: store, Dialer: sim},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cliEnd, srvEnd := xmovie.Pipe()
	if err := srv.ServeConn(srvEnd); err != nil {
		t.Fatal(err)
	}
	client, err := xmovie.NewClientConn(cliEnd, xmovie.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	end, err := sim.Listen("lobby/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recvDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
		recvDone <- st
	}()
	id, err := client.Play("feature", "lobby/video")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Pause(id); err != nil {
		t.Fatal(err)
	}
	if pos, err := client.SeekTo(id, 950); err != nil || pos != 950 {
		t.Fatalf("seek = %d, %v", pos, err)
	}
	if err := client.Resume(id); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-recvDone:
		if st.Delivered == 0 || st.Delivered >= 1000 {
			t.Fatalf("delivered %d frames across live seek", st.Delivered)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not finish")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tot := srv.Observe().Streams
		if tot.Streams == 1 && tot.Frames > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream totals %+v", tot)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFacadeDiskBackendDurability drives the public durable-storage API:
// a server built with a DataDir records a movie, shuts down, and a new
// server over the same directory still serves it; OpenDiskStore reads the
// same data directly.
func TestFacadeDiskBackendDurability(t *testing.T) {
	dir := t.TempDir()
	eca := equipment.NewECA("studio")
	if err := eca.Register(equipment.NewCamera("cam1", 256)); err != nil {
		t.Fatal(err)
	}
	serve := func() (*xmovie.Server, *xmovie.Client) {
		env := &xmovie.ServerEnv{EUA: equipment.NewEUA(eca, "server")}
		srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
			Stack:   xmovie.StackHandcoded,
			Env:     env,
			DataDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		cliEnd, srvEnd := xmovie.Pipe()
		if err := srv.ServeConn(srvEnd); err != nil {
			t.Fatal(err)
		}
		client, err := xmovie.NewClientConn(cliEnd, xmovie.ClientConfig{Stack: xmovie.StackHandcoded})
		if err != nil {
			t.Fatal(err)
		}
		return srv, client
	}

	srv, client := serve()
	if err := client.Create("durable", 25, map[string]string{"take": "1"}); err != nil {
		t.Fatal(err)
	}
	if n, err := client.Record("durable", "cam1", 17); err != nil || n != 17 {
		t.Fatalf("record = %d, %v", n, err)
	}
	client.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv, client = serve()
	length, rate, err := client.Select("durable")
	if err != nil || length != 17 || rate != 25 {
		t.Fatalf("after restart: length %d rate %d, %v", length, rate, err)
	}
	attrs, err := client.Query("durable")
	if err != nil || attrs["take"] != "1" {
		t.Fatalf("attrs after restart = %v, %v", attrs, err)
	}
	client.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The store facade opens the same directory offline.
	store, err := xmovie.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m, err := store.Get("durable")
	if err != nil || m.FrameCount() != 17 {
		t.Fatalf("offline open: %v, count %d", err, m.FrameCount())
	}
}
