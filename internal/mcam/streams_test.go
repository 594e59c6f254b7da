package mcam

import (
	"strings"
	"sync"
	"testing"
	"time"

	"xmovie/internal/equipment"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/spa"
)

// trackContent wraps movie content and records every source the play path
// opens, so the test can assert the chunk-window memory bound end to end.
type trackContent struct {
	moviedb.Content
	mu      sync.Mutex
	sources []moviedb.FrameSource
}

func (c *trackContent) Open() moviedb.FrameSource {
	src := c.Content.Open()
	c.mu.Lock()
	c.sources = append(c.sources, src)
	c.mu.Unlock()
	return src
}

// caller abstracts the two control stacks for the acceptance flow.
type caller interface {
	call(req *Request) (*Response, error)
	awaitEvent() (Event, error)
}

type isodeCaller struct{ c *IsodeClient }

func (i isodeCaller) call(req *Request) (*Response, error) { return i.c.Call(req) }
func (i isodeCaller) awaitEvent() (Event, error)           { return i.c.AwaitEvent() }

type estelleCaller struct{ app *AppClient }

func (e estelleCaller) call(req *Request) (*Response, error) { return e.app.Call(req, 10*time.Second) }
func (e estelleCaller) awaitEvent() (Event, error)           { return e.app.AwaitEvent(10 * time.Second) }

// streamEnv builds an environment holding one 10k-frame lazy movie (chunk
// window 32 × 256 B) and one congestion-test movie, with adaptive delivery
// and data-plane totals enabled.
func streamEnv(t *testing.T) (*ServerEnv, *spa.SimNet, *trackContent, *spa.Totals) {
	t.Helper()
	store := moviedb.NewMemStore()
	epic := moviedb.SynthesizeLazy(moviedb.SynthConfig{
		Name: "epic", Frames: 10000, FrameSize: 256, ChunkFrames: 32, FrameRate: 2000,
	})
	tc := &trackContent{Content: epic.Content}
	epic.Content = tc
	if err := store.Create(epic); err != nil {
		t.Fatal(err)
	}
	squeeze := moviedb.SynthesizeLazy(moviedb.SynthConfig{
		Name: "squeeze", Frames: 500, FrameSize: 1000, ChunkFrames: 16, FrameRate: 250,
	})
	if err := store.Create(squeeze); err != nil {
		t.Fatal(err)
	}
	sim := spa.NewSimNet()
	t.Cleanup(sim.Close)
	totals := &spa.Totals{}
	env := &ServerEnv{Store: store, Dialer: sim, StreamWindow: 64, StreamTotals: totals}
	return env, sim, tc, totals
}

// exerciseStreaming is the acceptance flow of the streaming data plane,
// identical over both control stacks: a 10k-frame lazy movie streams
// through SPA → MTP → equipment sink with pause, resume and live seek, and
// a second stream over a congested link exercises loss-driven frame
// dropping — all with bounded sender memory.
func exerciseStreaming(t *testing.T, c caller, sim *spa.SimNet, tc *trackContent, totals *spa.Totals, addrPrefix string) {
	// --- 10k-frame movie into a display sink, with live control. ---
	clientEnd, err := sim.Listen(addrPrefix+"/video", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	display := equipment.NewDisplay("screen")
	recvDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := equipment.Playback(clientEnd, display, mtp.ReceiverConfig{FeedbackEvery: 8})
		recvDone <- st
	}()

	resp, err := c.call(&Request{Op: OpPlay, Movie: "epic", StreamAddr: addrPrefix + "/video"})
	if err != nil || !resp.OK() {
		t.Fatalf("play = %+v, %v", resp, err)
	}
	if resp.Length != 10000 {
		t.Fatalf("play length = %d", resp.Length)
	}
	id := resp.StreamID

	// Let the stream run, then pause and verify the sink stalls.
	deadline := time.Now().Add(10 * time.Second)
	for display.Rendered() < 100 {
		if time.Now().After(deadline) {
			t.Fatal("sink saw no frames")
		}
		time.Sleep(time.Millisecond)
	}
	if r, err := c.call(&Request{Op: OpPause, StreamID: id}); err != nil || !r.OK() {
		t.Fatalf("pause = %+v, %v", r, err)
	}
	time.Sleep(30 * time.Millisecond) // in-flight frames settle
	atPause := display.Rendered()
	time.Sleep(80 * time.Millisecond)
	if after := display.Rendered(); after > atPause+1 {
		t.Fatalf("sink advanced %d -> %d while paused", atPause, after)
	}

	// Live seek near the end, then resume: the same stream finishes from
	// frame 9900 without a stop/replay round trip.
	if r, err := c.call(&Request{Op: OpSeek, StreamID: id, Position: 9900}); err != nil || !r.OK() || r.Position != 9900 {
		t.Fatalf("live seek = %+v, %v", r, err)
	}
	if r, err := c.call(&Request{Op: OpResume, StreamID: id}); err != nil || !r.OK() {
		t.Fatalf("resume = %+v, %v", r, err)
	}
	var rstats mtp.RecvStats
	select {
	case rstats = <-recvDone:
	case <-time.After(20 * time.Second):
		t.Fatal("stream did not complete after seek+resume")
	}
	if rstats.Delivered >= 10000 || rstats.Delivered < atPause {
		t.Fatalf("delivered %d frames across live seek", rstats.Delivered)
	}
	if rstats.Resyncs == 0 {
		t.Error("receiver recorded no resync after live seek")
	}
	if got := display.Rendered(); got != rstats.Delivered {
		t.Errorf("display rendered %d of %d delivered", got, rstats.Delivered)
	}
	ev, err := c.awaitEvent()
	for err == nil && !(ev.Kind == EventStreamCompleted && ev.StreamID == id) {
		ev, err = c.awaitEvent()
	}
	if err != nil {
		t.Fatalf("completion event: %v", err)
	}
	if ev.Position != 10000 {
		t.Errorf("completion position = %d", ev.Position)
	}
	if !strings.Contains(ev.Detail, "sent=") {
		t.Errorf("completion detail lacks transmission stats: %q", ev.Detail)
	}

	// --- Loss-driven dropping over a congested link. ---
	// 250 fps × 8 kbit needs 2 Mbit/s; the link provides half, plus loss,
	// so the adaptive sender must drop frames to keep its deadlines.
	squeezeEnd, err := sim.Listen(addrPrefix+"/squeeze",
		netsim.Config{LossProb: 0.05, Seed: 23, BitsPerSec: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	squeezeDone := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(squeezeEnd, mtp.ReceiverConfig{Window: 32, FeedbackEvery: 8}, nil)
		squeezeDone <- st
	}()
	before := totals.Snapshot()
	resp, err = c.call(&Request{Op: OpPlay, Movie: "squeeze", StreamAddr: addrPrefix + "/squeeze"})
	if err != nil || !resp.OK() {
		t.Fatalf("squeeze play = %+v, %v", resp, err)
	}
	select {
	case rstats = <-squeezeDone:
	case <-time.After(30 * time.Second):
		t.Fatal("squeeze stream did not terminate")
	}
	ev, err = c.awaitEvent()
	for err == nil && !(ev.Kind == EventStreamCompleted && ev.StreamID == resp.StreamID) {
		ev, err = c.awaitEvent()
	}
	if err != nil {
		t.Fatalf("squeeze completion event: %v", err)
	}
	after := totals.Snapshot()
	if dropped := after.Dropped - before.Dropped; dropped == 0 {
		t.Error("no frames dropped across the congested link")
	}
	if after.Feedback == before.Feedback {
		t.Error("server processed no receiver feedback")
	}
	if rstats.Delivered == 0 || rstats.Delivered+rstats.Lost != 500 {
		t.Errorf("squeeze accounting: %+v", rstats)
	}

	// --- Bounded memory: no full-movie materialization anywhere. ---
	tc.mu.Lock()
	sources := append([]moviedb.FrameSource(nil), tc.sources...)
	tc.mu.Unlock()
	if len(sources) == 0 {
		t.Fatal("play path did not open a lazy source")
	}
	for i, src := range sources {
		rr, ok := src.(moviedb.ResidentReporter)
		if !ok {
			t.Fatalf("source %d cannot report residency", i)
		}
		if max := rr.MaxResident(); max > 32*256 {
			t.Errorf("source %d held %d bytes, beyond the 8 KiB chunk window", i, max)
		}
	}
}

func TestIsodeStreamingDataPlane(t *testing.T) {
	env, sim, tc, totals := streamEnv(t)
	client := runIsodePair(t, env)
	exerciseStreaming(t, isodeCaller{client}, sim, tc, totals, "iso")
}

func TestEstelleStreamingDataPlane(t *testing.T) {
	env, sim, tc, totals := streamEnv(t)
	app, _ := buildEstelleStack(t, env)
	if err := app.Connect("mcam-server", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	exerciseStreaming(t, estelleCaller{app}, sim, tc, totals, "est")
	if err := app.Release(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
