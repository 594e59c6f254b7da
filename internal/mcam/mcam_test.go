package mcam

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"xmovie/internal/directory"
	"xmovie/internal/equipment"
	"xmovie/internal/estelle"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/presentation"
	"xmovie/internal/session"
	"xmovie/internal/spa"
	"xmovie/internal/transport"
)

// newTestEnv builds a server environment with a seeded store, a simulated
// stream network, a studio site and a movie directory.
func newTestEnv(t *testing.T) (*ServerEnv, *spa.SimNet) {
	t.Helper()
	store := moviedb.NewMemStore()
	moviedb.MustSeed(store, "movie", 3, 40)
	sim := spa.NewSimNet()
	t.Cleanup(sim.Close)

	eca := equipment.NewECA("studio")
	if err := eca.Register(equipment.NewCamera("cam1", 512)); err != nil {
		t.Fatal(err)
	}
	dsaBase := directory.MustParseDN("c=DE/o=uni")
	dsa := directory.NewDSA("dsa", dsaBase)
	env := &ServerEnv{
		Store:   store,
		Dialer:  sim,
		DUA:     directory.NewDUA(dsa),
		DirBase: dsaBase,
		EUA:     equipment.NewEUA(eca, "server"),
	}
	return env, sim
}

// runIsodePair starts a hand-coded server on one end of a pipe and returns
// a connected hand-coded client.
func runIsodePair(t *testing.T, env *ServerEnv) *IsodeClient {
	t.Helper()
	ca, cb := transport.Pipe(0)
	serverDone := make(chan error, 1)
	go func() { serverDone <- ServeIsode(cb, env) }()
	t.Cleanup(func() {
		select {
		case <-serverDone:
		case <-time.After(5 * time.Second):
			t.Error("isode server did not exit")
		}
	})
	client, err := DialIsode(ca, "mcam-server")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

func TestIsodeAccessAndManagement(t *testing.T) {
	env, _ := newTestEnv(t)
	client := runIsodePair(t, env)

	// List the seeded movies.
	resp, err := client.Call(&Request{Op: OpListMovies})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK() || len(resp.Movies) != 3 {
		t.Fatalf("list = %+v", resp)
	}

	// Create with attributes.
	resp, err = client.Call(&Request{Op: OpCreate, Movie: "newfilm", FrameRate: 30,
		Format: int64(moviedb.FormatMPEG1),
		Attrs:  []Attr{{Name: "year", Value: "1994"}}})
	if err != nil || !resp.OK() {
		t.Fatalf("create = %+v, %v", resp, err)
	}
	// Duplicate create reports movieExists.
	resp, err = client.Call(&Request{Op: OpCreate, Movie: "newfilm"})
	if err != nil || resp.Status != StatusMovieExists {
		t.Fatalf("duplicate create = %+v, %v", resp, err)
	}

	// The directory was updated.
	e, err := env.DUA.Read(env.DirBase.Child("cn", "newfilm"))
	if err != nil {
		t.Fatalf("directory entry missing: %v", err)
	}
	if e.Get("year") != "1994" {
		t.Errorf("directory year = %q", e.Get("year"))
	}

	// Select + query through the selection.
	resp, err = client.Call(&Request{Op: OpSelect, Movie: "movie-0"})
	if err != nil || !resp.OK() || resp.Length != 40 {
		t.Fatalf("select = %+v, %v", resp, err)
	}
	resp, err = client.Call(&Request{Op: OpQueryAttributes})
	if err != nil || !resp.OK() {
		t.Fatalf("query = %+v, %v", resp, err)
	}
	var title string
	for _, a := range resp.Attrs {
		if a.Name == moviedb.AttrTitle {
			title = a.Value
		}
	}
	if title != "movie-0" {
		t.Errorf("title via selection = %q (attrs %v)", title, resp.Attrs)
	}

	// Modify and re-query.
	resp, err = client.Call(&Request{Op: OpModifyAttributes,
		Attrs: []Attr{{Name: "rating", Value: "5"}}})
	if err != nil || !resp.OK() {
		t.Fatalf("modify = %+v, %v", resp, err)
	}
	resp, _ = client.Call(&Request{Op: OpQueryAttributes})
	found := false
	for _, a := range resp.Attrs {
		if a.Name == "rating" && a.Value == "5" {
			found = true
		}
	}
	if !found {
		t.Errorf("rating not present after modify: %v", resp.Attrs)
	}

	// Deselect: query without movie now fails.
	if resp, _ = client.Call(&Request{Op: OpDeselect}); !resp.OK() {
		t.Fatalf("deselect = %+v", resp)
	}
	resp, _ = client.Call(&Request{Op: OpQueryAttributes})
	if resp.Status != StatusNotSelected {
		t.Errorf("query after deselect = %v", resp.Status)
	}

	// Delete.
	if resp, _ = client.Call(&Request{Op: OpDelete, Movie: "newfilm"}); !resp.OK() {
		t.Fatalf("delete = %+v", resp)
	}
	resp, _ = client.Call(&Request{Op: OpDelete, Movie: "newfilm"})
	if resp.Status != StatusNoSuchMovie {
		t.Errorf("double delete = %v", resp.Status)
	}
}

func TestIsodePlayStreamsMovie(t *testing.T) {
	env, sim := newTestEnv(t)
	client := runIsodePair(t, env)

	// The client registers an MTP receive path.
	clientEnd, err := sim.Listen("client-1/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		frames []mtp.Frame
		rstats mtp.RecvStats
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rstats, _ = mtp.ReceiveStream(clientEnd, mtp.ReceiverConfig{}, func(f mtp.Frame) {
			cp := f
			cp.Payload = append([]byte(nil), f.Payload...)
			frames = append(frames, cp)
		})
	}()

	var events []Event
	var evMu sync.Mutex
	client.OnEvent = func(e Event) {
		evMu.Lock()
		events = append(events, e)
		evMu.Unlock()
	}

	resp, err := client.Call(&Request{Op: OpPlay, Movie: "movie-1",
		StreamAddr: "client-1/video"})
	if err != nil || !resp.OK() {
		t.Fatalf("play = %+v, %v", resp, err)
	}
	if resp.StreamID == 0 || resp.Length != 40 {
		t.Errorf("play response = %+v", resp)
	}
	wg.Wait() // EOS received

	want, _ := env.Store.Get("movie-1")
	if rstats.Delivered != 40 {
		t.Fatalf("delivered %d frames (stats %+v)", rstats.Delivered, rstats)
	}
	for i, f := range frames {
		if !bytes.Equal(f.Payload, want.Frames[i]) {
			t.Fatalf("frame %d corrupted", i)
		}
	}

	// The completion event arrives on the control association.
	ev, err := client.AwaitEvent()
	for err == nil && ev.Kind != EventStreamCompleted {
		ev, err = client.AwaitEvent()
	}
	if err != nil {
		t.Fatalf("await completion: %v", err)
	}
	if ev.StreamID != resp.StreamID || ev.Position != 40 {
		t.Errorf("completion event = %+v", ev)
	}
	evMu.Lock()
	sawStart := false
	for _, e := range events {
		if e.Kind == EventStreamStarted {
			sawStart = true
		}
	}
	evMu.Unlock()
	if !sawStart {
		t.Error("no started event observed")
	}
}

func TestIsodeStopInterruptsStream(t *testing.T) {
	env, sim := newTestEnv(t)
	// Re-seed with a long, slow movie so stop lands mid-stream.
	store := moviedb.NewMemStore()
	long := moviedb.Synthesize(moviedb.SynthConfig{Name: "long", Frames: 10000, FrameRate: 50, FrameSize: 64})
	if err := store.Create(long); err != nil {
		t.Fatal(err)
	}
	env.Store = store
	client := runIsodePair(t, env)

	clientEnd, err := sim.Listen("client-2/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recvDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(clientEnd, mtp.ReceiverConfig{}, nil)
		recvDone <- st
	}()

	resp, err := client.Call(&Request{Op: OpPlay, Movie: "long", StreamAddr: "client-2/video"})
	if err != nil || !resp.OK() {
		t.Fatalf("play = %+v, %v", resp, err)
	}
	time.Sleep(50 * time.Millisecond) // let some frames flow
	stopResp, err := client.Call(&Request{Op: OpStop, StreamID: resp.StreamID})
	if err != nil || !stopResp.OK() {
		t.Fatalf("stop = %+v, %v", stopResp, err)
	}
	if stopResp.Position <= 0 || stopResp.Position >= 10000 {
		t.Errorf("stop position = %d, want mid-stream", stopResp.Position)
	}
	select {
	case st := <-recvDone:
		if st.Delivered >= 10000 {
			t.Errorf("receiver got the whole movie despite stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not finish after stop")
	}
}

func TestIsodePauseResume(t *testing.T) {
	env, sim := newTestEnv(t)
	client := runIsodePair(t, env)
	clientEnd, err := sim.Listen("client-3/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recvDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(clientEnd, mtp.ReceiverConfig{}, nil)
		recvDone <- st
	}()
	resp, err := client.Call(&Request{Op: OpPlay, Movie: "movie-0", StreamAddr: "client-3/video"})
	if err != nil || !resp.OK() {
		t.Fatalf("play = %+v, %v", resp, err)
	}
	if r, err := client.Call(&Request{Op: OpPause, StreamID: resp.StreamID}); err != nil || !r.OK() {
		t.Fatalf("pause = %+v, %v", r, err)
	}
	// While paused the receiver must not complete.
	select {
	case <-recvDone:
		t.Fatal("stream completed while paused")
	case <-time.After(100 * time.Millisecond):
	}
	if r, err := client.Call(&Request{Op: OpResume, StreamID: resp.StreamID}); err != nil || !r.OK() {
		t.Fatalf("resume = %+v, %v", r, err)
	}
	select {
	case st := <-recvDone:
		if st.Delivered != 40 {
			t.Errorf("delivered %d after resume", st.Delivered)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not complete after resume")
	}
}

func TestIsodeRecordFromCamera(t *testing.T) {
	env, _ := newTestEnv(t)
	client := runIsodePair(t, env)
	if r, err := client.Call(&Request{Op: OpCreate, Movie: "studio-take", FrameRate: 25}); err != nil || !r.OK() {
		t.Fatalf("create = %+v, %v", r, err)
	}
	resp, err := client.Call(&Request{Op: OpRecord, Movie: "studio-take", Device: "cam1", Count: 12})
	if err != nil || !resp.OK() {
		t.Fatalf("record = %+v, %v", resp, err)
	}
	if resp.Length != 12 {
		t.Errorf("length after record = %d", resp.Length)
	}
	m, err := env.Store.Get("studio-take")
	if err != nil || len(m.Frames) != 12 {
		t.Fatalf("stored %d frames, %v", len(m.Frames), err)
	}
	// Unknown device.
	resp, _ = client.Call(&Request{Op: OpRecord, Movie: "studio-take", Device: "ghost"})
	if resp.Status != StatusEquipmentError {
		t.Errorf("record from ghost = %v", resp.Status)
	}
}

// buildEstelleStack wires a full generated-stack client and server pair:
// AppClient -> MCA -> presentation -> session -> transport pipe -> session
// -> presentation -> server MCA.
func buildEstelleStack(t *testing.T, env *ServerEnv) (*AppClient, *estelle.Scheduler) {
	t.Helper()
	rt := estelle.NewRuntime(estelle.WithStrict())
	mustAdd := func(def *estelle.ModuleDef, name string) *estelle.Instance {
		inst, err := rt.AddSystem(def, name)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	clientMCA := mustAdd(estelle.AsSystem(ClientModuleDef()), "clientMCA")
	clientPres := mustAdd(estelle.AsSystem(presentation.ProtocolMachineDef()), "clientPres")
	clientSess := mustAdd(estelle.AsSystem(session.ProtocolMachineDef()), "clientSess")
	serverMCA := mustAdd(estelle.AsSystem(ServerModuleDef(env, ServerHooks{})), "serverMCA")
	serverPres := mustAdd(estelle.AsSystem(presentation.ProtocolMachineDef()), "serverPres")
	serverSess := mustAdd(estelle.AsSystem(session.ProtocolMachineDef()), "serverSess")
	pipe := mustAdd(estelle.AsSystem(transport.PipeProviderDef()), "pipe")
	for _, pair := range [][2]*estelle.IP{
		{clientMCA.IP("P"), clientPres.IP("P")},
		{clientPres.IP("S"), clientSess.IP("S")},
		{clientSess.IP("T"), pipe.IP("A")},
		{serverSess.IP("T"), pipe.IP("B")},
		{serverPres.IP("S"), serverSess.IP("S")},
		{serverMCA.IP("P"), serverPres.IP("P")},
	} {
		if err := rt.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	app := NewAppClient(clientMCA.IP("U"))
	s := estelle.NewScheduler(rt, estelle.MapPerSystem)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return app, s
}

func TestEstelleStackEndToEnd(t *testing.T) {
	env, sim := newTestEnv(t)
	app, _ := buildEstelleStack(t, env)

	if err := app.Connect("mcam-server", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := app.Call(&Request{Op: OpListMovies}, 5*time.Second)
	if err != nil || !resp.OK() || len(resp.Movies) != 3 {
		t.Fatalf("list = %+v, %v", resp, err)
	}
	resp, err = app.Call(&Request{Op: OpCreate, Movie: "est-film", FrameRate: 25,
		Attrs: []Attr{{Name: "stack", Value: "estelle"}}}, 5*time.Second)
	if err != nil || !resp.OK() {
		t.Fatalf("create = %+v, %v", resp, err)
	}

	// Play over the simulated stream network.
	clientEnd, err := sim.Listen("est-client/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recvDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(clientEnd, mtp.ReceiverConfig{}, nil)
		recvDone <- st
	}()
	resp, err = app.Call(&Request{Op: OpPlay, Movie: "movie-2", StreamAddr: "est-client/video"}, 5*time.Second)
	if err != nil || !resp.OK() {
		t.Fatalf("play = %+v, %v", resp, err)
	}
	select {
	case st := <-recvDone:
		if st.Delivered != 40 {
			t.Errorf("delivered %d frames", st.Delivered)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not complete")
	}
	// Completion event arrives via the Estelle control path.
	ev, err := app.AwaitEvent(5 * time.Second)
	for err == nil && ev.Kind != EventStreamCompleted {
		ev, err = app.AwaitEvent(5 * time.Second)
	}
	if err != nil {
		t.Fatalf("completion event: %v", err)
	}

	if err := app.Release(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Calls after release fail cleanly.
	resp, err = app.Call(&Request{Op: OpListMovies}, 5*time.Second)
	if err == nil && resp.Status == StatusSuccess {
		t.Error("call succeeded after release")
	}
}

func TestEstelleClientAgainstIsodeServer(t *testing.T) {
	// Conformance: generated client stack versus hand-coded server over a
	// real pipe — MCAM over two different stack implementations.
	env, _ := newTestEnv(t)
	ca, cb := transport.Pipe(0)
	serverDone := make(chan error, 1)
	go func() { serverDone <- ServeIsode(cb, env) }()

	rt := estelle.NewRuntime(estelle.WithStrict())
	mustAdd := func(def *estelle.ModuleDef, name string) *estelle.Instance {
		inst, err := rt.AddSystem(def, name)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	clientMCA := mustAdd(estelle.AsSystem(ClientModuleDef()), "clientMCA")
	clientPres := mustAdd(estelle.AsSystem(presentation.ProtocolMachineDef()), "clientPres")
	clientSess := mustAdd(estelle.AsSystem(session.ProtocolMachineDef()), "clientSess")
	prov := mustAdd(estelle.AsSystem(transport.ConnProviderDef(ca, false, nil)), "prov")
	for _, pair := range [][2]*estelle.IP{
		{clientMCA.IP("P"), clientPres.IP("P")},
		{clientPres.IP("S"), clientSess.IP("S")},
		{clientSess.IP("T"), prov.IP("U")},
	} {
		if err := rt.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	app := NewAppClient(clientMCA.IP("U"))
	s := estelle.NewScheduler(rt, estelle.MapPerInstance)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	if err := app.Connect("mcam-server", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := app.Call(&Request{Op: OpListMovies}, 5*time.Second)
	if err != nil || !resp.OK() || len(resp.Movies) != 3 {
		t.Fatalf("cross-stack list = %+v, %v", resp, err)
	}
	resp, err = app.Call(&Request{Op: OpSelect, Movie: "movie-0"}, 5*time.Second)
	if err != nil || !resp.OK() || resp.Length != 40 {
		t.Fatalf("cross-stack select = %+v, %v", resp, err)
	}
	if err := app.Release(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-serverDone:
	case <-time.After(5 * time.Second):
		t.Fatal("isode server did not exit after release")
	}
}
