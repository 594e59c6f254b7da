package core

import (
	"testing"
	"time"

	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/spa"
	"xmovie/internal/transport"
)

// TestServerAggregatesStreamTotals plays a lazy movie through a full core
// server/client pair and reads the server-wide data-plane counters the
// connection manager now aggregates across sessions.
func TestServerAggregatesStreamTotals(t *testing.T) {
	store := moviedb.NewMemStore()
	if err := store.Create(moviedb.SynthesizeLazy(moviedb.SynthConfig{
		Name: "feature", Frames: 200, FrameSize: 128,
	})); err != nil {
		t.Fatal(err)
	}
	sim := spa.NewSimNet()
	defer sim.Close()
	env := &mcam.ServerEnv{Store: store, Dialer: sim}
	srv, err := NewServer(ServerConfig{Stack: StackHandcoded, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Observe().Streams; got.Streams != 0 {
		t.Fatalf("fresh server totals %+v", got)
	}

	cliEnd, srvEnd := transport.Pipe(0)
	if err := srv.ServeConn(srvEnd); err != nil {
		t.Fatal(err)
	}
	client, err := NewClientConn(cliEnd, ClientConfig{Stack: StackHandcoded})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	end, err := sim.Listen("viewer/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recvDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
		recvDone <- st
	}()
	resp, err := client.Call(&mcam.Request{Op: mcam.OpPlay, Movie: "feature", StreamAddr: "viewer/video"})
	if err != nil || !resp.OK() {
		t.Fatalf("play = %+v, %v", resp, err)
	}
	select {
	case st := <-recvDone:
		if st.Delivered != 200 {
			t.Fatalf("delivered %d", st.Delivered)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not complete")
	}
	// The totals land when the stream goroutine unwinds; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tot := srv.Observe().Streams
		if tot.Streams == 1 && tot.Frames == 200 && tot.Bytes == 200*128 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stream totals %+v", tot)
		}
		time.Sleep(time.Millisecond)
	}
}
