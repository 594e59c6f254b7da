package core

import (
	"runtime"
	"testing"
	"time"

	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/transport"
)

// Whole-operation allocation guards: one Query round trip over a pipe
// association, counted across every goroutine it runs on — the client's
// Call, the transport, and the server's decode, handling and reply. The
// ceilings are the counts measured when each guard was set; a change that
// adds an allocation anywhere on the op's path trips them.
const (
	handcodedQueryAllocs = 13
	generatedQueryAllocs = 45
	// generatedAssocOpenAllocs bounds one generated-stack association's
	// open and close over a pipe.
	generatedAssocOpenAllocs = 351
)

func TestHandcodedQueryAllocs(t *testing.T) {
	queryAllocs(t, StackHandcoded, handcodedQueryAllocs)
}

func TestGeneratedQueryAllocs(t *testing.T) {
	queryAllocs(t, StackGenerated, generatedQueryAllocs)
}

// queryAllocs opens a pipe association on stack and counts the
// allocations of one OpQueryAttributes round trip on a movie with four
// attributes.
func queryAllocs(t *testing.T, stack StackKind, ceiling float64) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	store := moviedb.NewShardedStore(0)
	if err := store.Create(&moviedb.Movie{Name: "casablanca", FrameRate: 25, Frames: [][]byte{{1}, {2}},
		Attrs: moviedb.Attributes{"title": "Casablanca", "year": "1942", "director": "Curtiz", "format": "M-JPEG"}}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Stack: stack, Env: &mcam.ServerEnv{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srvEnd, cliEnd := transport.Pipe(0)
	if err := srv.ServeConn(srvEnd); err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientConn(cliEnd, ClientConfig{Stack: stack})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	req := &mcam.Request{Op: mcam.OpQueryAttributes, Movie: "casablanca"}
	call := func() {
		resp, err := cli.Call(req)
		if err != nil || !resp.OK() || len(resp.Attrs) != 4 {
			t.Fatalf("query = %+v, %v", resp, err)
		}
	}
	for i := 0; i < 50; i++ { // warm every pool and buffer on the path
		call()
	}
	allocs := testing.AllocsPerRun(500, call)
	t.Logf("%v: %.0f allocations per Query round trip", stack, allocs)
	if allocs > ceiling {
		t.Fatalf("%v: a Query round trip allocates %.0f times, ceiling %.0f", stack, allocs, ceiling)
	}
}

// TestGeneratedAssocOpenAllocs counts the allocations of one generated
// association's whole life over a pipe, across every goroutine: the
// client's runtime, entity and scheduler, the server's admission and
// entity, the connect and release exchanges, and the server's reaping of
// the entity. Each run waits until the server has retired the session, so
// no run's teardown is counted in the next.
func TestGeneratedAssocOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv, err := NewServer(ServerConfig{Env: &mcam.ServerEnv{Store: moviedb.NewMemStore()}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var opened int64
	open := func() {
		srvEnd, cliEnd := transport.Pipe(0)
		if err := srv.ServeConn(srvEnd); err != nil {
			t.Fatal(err)
		}
		cli, err := NewClientConn(cliEnd, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		opened++
		for srv.completed.Load() < opened {
			runtime.Gosched()
		}
	}
	for i := 0; i < 20; i++ { // warm every pool on the path
		open()
	}
	allocs := testing.AllocsPerRun(200, open)
	t.Logf("%.0f allocations per generated association open+close", allocs)
	if allocs > generatedAssocOpenAllocs {
		t.Fatalf("a generated association's open+close allocates %.0f times, ceiling %d", allocs, generatedAssocOpenAllocs)
	}
}

// TestIdleHandcodedAssociationGoroutines: an idle hand-coded association
// over a pipe owns one goroutine, the server's — the client runs on its
// caller's, and the pipe keeps the client's receive deadline itself, so
// no receive pump runs beside them.
func TestIdleHandcodedAssociationGoroutines(t *testing.T) {
	srv, err := NewServer(ServerConfig{Stack: StackHandcoded, Env: &mcam.ServerEnv{Store: moviedb.NewMemStore()}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := runtime.NumGoroutine()
	srvEnd, cliEnd := transport.Pipe(0)
	if err := srv.ServeConn(srvEnd); err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientConn(cliEnd, ClientConfig{Stack: StackHandcoded})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(&mcam.Request{Op: mcam.OpListMovies}); err != nil {
		t.Fatal(err)
	}
	// Goroutines that exit (none should) get a moment to do so.
	var delta int
	for i := 0; i < 50; i++ {
		if delta = runtime.NumGoroutine() - before; delta <= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if delta != 1 {
		t.Fatalf("an idle association added %d goroutines, want 1 (the server's)", delta)
	}
}
