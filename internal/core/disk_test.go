package core

import (
	"bytes"
	"testing"
	"time"

	"xmovie/internal/equipment"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/spa"
	"xmovie/internal/transport"
)

// diskServer starts a disk-backed in-memory server over dir and returns it
// with a connected client.
func diskServer(t *testing.T, dir string, sim *spa.SimNet, eua *equipment.EUA) (*Server, *Client) {
	t.Helper()
	env := &mcam.ServerEnv{Dialer: sim, EUA: eua}
	srv, err := NewServer(ServerConfig{
		Stack:   StackHandcoded,
		Env:     env,
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	cliEnd, srvEnd := transport.Pipe(0)
	if err := srv.ServeConn(srvEnd); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	client, err := NewClientConn(cliEnd, ClientConfig{Stack: StackHandcoded})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, client
}

// receive collects a whole stream's frame payloads from a SimNet endpoint.
func receive(t *testing.T, sim *spa.SimNet, addr string) (chan [][]byte, string) {
	t.Helper()
	end, err := sim.Listen(addr, netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan [][]byte, 1)
	go func() {
		var frames [][]byte
		_, _ = mtp.ReceiveStream(end, mtp.ReceiverConfig{}, func(f mtp.Frame) {
			frames = append(frames, append([]byte(nil), f.Payload...))
		})
		out <- frames
	}()
	return out, addr
}

// TestDiskBackendRecordSurvivesRestart is the durable-storage acceptance
// flow: a movie created and recorded through OpRecord on the disk backend
// survives a full server shutdown and restart, and replays byte-identically
// through the streaming pipeline from the reopened store.
func TestDiskBackendRecordSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sim := spa.NewSimNet()
	defer sim.Close()
	eca := equipment.NewECA("studio")
	if err := eca.Register(equipment.NewCamera("cam1", 512)); err != nil {
		t.Fatal(err)
	}

	var want [][]byte
	{
		srv, client := diskServer(t, dir, sim, equipment.NewEUA(eca, "srv"))
		call := func(req *mcam.Request) *mcam.Response {
			t.Helper()
			resp, err := client.Call(req)
			if err != nil || !resp.OK() {
				t.Fatalf("%v = %+v, %v", req.Op, resp, err)
			}
			return resp
		}
		call(&mcam.Request{Op: mcam.OpCreate, Movie: "take", FrameRate: 25,
			Attrs: []mcam.Attr{{Name: "studio", Value: "xmovie"}}})
		if resp := call(&mcam.Request{Op: mcam.OpRecord, Movie: "take", Device: "cam1", Count: 40}); resp.Length != 40 {
			t.Fatalf("length after first record = %d", resp.Length)
		}
		if resp := call(&mcam.Request{Op: mcam.OpRecord, Movie: "take", Device: "cam1", Count: 23}); resp.Length != 63 {
			t.Fatalf("length after second record = %d", resp.Length)
		}
		// Snapshot the recorded bytes straight from the store before the
		// process "dies".
		m, err := srv.cfg.Env.Store.Get("take")
		if err != nil {
			t.Fatal(err)
		}
		src := m.Open()
		for {
			f, err := src.Next()
			if err != nil {
				break
			}
			want = append(want, append([]byte(nil), f...))
		}
		src.Close()
		if len(want) != 63 {
			t.Fatalf("pre-restart snapshot has %d frames", len(want))
		}
		client.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: a brand-new server over the same data directory.
	srv, client := diskServer(t, dir, sim, equipment.NewEUA(eca, "srv2"))
	defer srv.Close()
	defer client.Close()
	resp, err := client.Call(&mcam.Request{Op: mcam.OpSelect, Movie: "take"})
	if err != nil || !resp.OK() {
		t.Fatalf("select after restart = %+v, %v", resp, err)
	}
	if resp.Length != 63 || resp.FrameRate != 25 {
		t.Fatalf("restarted movie: length %d rate %d", resp.Length, resp.FrameRate)
	}
	q, err := client.Call(&mcam.Request{Op: mcam.OpQueryAttributes, Movie: "take"})
	if err != nil || !q.OK() {
		t.Fatalf("query after restart = %+v, %v", q, err)
	}
	saw := false
	for _, a := range q.Attrs {
		if a.Name == "studio" && a.Value == "xmovie" {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("attributes lost across restart: %v", q.Attrs)
	}

	frames, addr := receive(t, sim, "restart-viewer/video")
	resp, err = client.Call(&mcam.Request{Op: mcam.OpPlay, Movie: "take", StreamAddr: addr})
	if err != nil || !resp.OK() {
		t.Fatalf("play after restart = %+v, %v", resp, err)
	}
	select {
	case got := <-frames:
		if len(got) != len(want) {
			t.Fatalf("replayed %d frames, recorded %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs after restart", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay did not complete")
	}
}

// TestDiskBackendColdStreamThroughServer streams a 10k-frame disk movie
// through the whole server pipeline from a freshly reopened store — every
// chunk read cold from disk — and requires complete delivery. (The
// chunk-window resident-memory bound of the cold path is asserted at
// source level in moviedb's TestDiskSourceMemoryBound.)
func TestDiskBackendColdStreamThroughServer(t *testing.T) {
	dir := t.TempDir()
	sim := spa.NewSimNet()
	defer sim.Close()

	{
		srv, client := diskServer(t, dir, sim, nil)
		epic := moviedb.SynthesizeLazy(moviedb.SynthConfig{
			Name: "epic", Frames: 10000, FrameSize: 64, FrameRate: 5000,
		})
		if err := srv.cfg.Env.Store.Create(epic); err != nil {
			t.Fatal(err)
		}
		client.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The restart guarantees an empty chunk cache: every read is cold.
	srv, client := diskServer(t, dir, sim, nil)
	defer srv.Close()
	defer client.Close()
	end, err := sim.Listen("cold-viewer/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recvDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
		recvDone <- st
	}()
	resp, err := client.Call(&mcam.Request{Op: mcam.OpPlay, Movie: "epic", StreamAddr: "cold-viewer/video"})
	if err != nil || !resp.OK() {
		t.Fatalf("play = %+v, %v", resp, err)
	}
	if resp.Length != 10000 {
		t.Fatalf("cold movie length = %d", resp.Length)
	}
	select {
	case st := <-recvDone:
		if st.Delivered != 10000 {
			t.Fatalf("cold stream delivered %d/10000 (stats %+v)", st.Delivered, st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cold stream did not complete")
	}
}
