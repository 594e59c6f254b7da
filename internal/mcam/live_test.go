package mcam

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/spa"
)

// Live-broadcast regression tests, each run over both control stacks: a
// persistent OpRecord session keeps a movie live while OpPlay streams
// through its growing tail, late joiners replay history before following
// the live edge byte-identically, and OpDelete refuses only while the
// broadcast is on air.

// liveEnv is newTestEnv plus an empty rate-0 movie: viewers of "onair"
// are unpaced, so tests finish as fast as frames are published. (OpCreate
// defaults FrameRate to 25, hence the direct store call.)
func liveEnv(t *testing.T) (*ServerEnv, *spa.SimNet) {
	env, sim := newTestEnv(t)
	if err := env.Store.Create(&moviedb.Movie{Name: "onair"}); err != nil {
		t.Fatal(err)
	}
	return env, sim
}

// recordBatch appends count captured frames to movie under the persistent
// recording session id and returns the movie's new length.
func recordBatch(t *testing.T, c caller, movie string, id, count int64) int64 {
	t.Helper()
	resp, err := c.call(&Request{Op: OpRecord, Movie: movie, Device: "cam1", StreamID: id, Count: count})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatalf("record batch = %v (%s)", resp.Status, resp.Diagnostic)
	}
	return resp.Length
}

// liveViewer subscribes to addr and collects every delivered payload.
type liveViewer struct {
	frames [][]byte
	stats  mtp.RecvStats
	first  chan struct{}
	done   chan struct{}
}

func watchLive(t *testing.T, sim *spa.SimNet, addr string) *liveViewer {
	t.Helper()
	end, err := sim.Listen(addr, netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := &liveViewer{first: make(chan struct{}), done: make(chan struct{})}
	once := false
	go func() {
		defer close(v.done)
		v.stats, _ = mtp.ReceiveStream(end, mtp.ReceiverConfig{}, func(f mtp.Frame) {
			// Payloads are only valid during the callback; copy for the
			// byte-identity checks.
			v.frames = append(v.frames, append([]byte(nil), f.Payload...))
			if !once {
				once = true
				close(v.first)
			}
		})
	}()
	return v
}

func (v *liveViewer) awaitFirst(t *testing.T) {
	t.Helper()
	select {
	case <-v.first:
	case <-time.After(10 * time.Second):
		t.Fatal("viewer never received a frame")
	}
}

func (v *liveViewer) awaitDone(t *testing.T) {
	t.Helper()
	select {
	case <-v.done:
	case <-time.After(20 * time.Second):
		t.Fatal("viewer stream never completed")
	}
}

// groundTruth replays the sealed movie straight from the store.
func groundTruth(t *testing.T, env *ServerEnv, name string) [][]byte {
	t.Helper()
	m, err := env.Store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	src := m.Open()
	defer src.Close()
	var out [][]byte
	for {
		f, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), f...))
	}
}

func TestPlayThroughLiveEdge(t *testing.T) {
	bothStacks(t, liveEnv, func(t *testing.T, c caller, env *ServerEnv, sim *spa.SimNet, prefix string) {
		const recID = 7
		if n := recordBatch(t, c, "onair", recID, 3); n != 3 {
			t.Fatalf("length after first batch = %d", n)
		}

		v := watchLive(t, sim, fmt.Sprintf("edge-%s/video", prefix))
		resp, err := c.call(&Request{Op: OpPlay, Movie: "onair", StreamAddr: fmt.Sprintf("edge-%s/video", prefix)})
		if err != nil || !resp.OK() {
			t.Fatalf("play on live movie = %+v, %v", resp, err)
		}
		v.awaitFirst(t)

		// Frames recorded while the play is running reach the viewer: the
		// stream must cross the live edge, not stop at the movie's length
		// at open time.
		if n := recordBatch(t, c, "onair", recID, 4); n != 7 {
			t.Fatalf("length after second batch = %d", n)
		}
		stop, err := c.call(&Request{Op: OpStop, StreamID: recID})
		if err != nil || !stop.OK() {
			t.Fatalf("stop recording = %+v, %v", stop, err)
		}
		if stop.Position != 7 {
			t.Fatalf("recording sealed at %d, want 7", stop.Position)
		}

		// Sealing the broadcast ends the viewer's stream normally.
		v.awaitDone(t)
		if v.stats.Delivered != 7 {
			t.Fatalf("viewer delivered %d frames, want 7", v.stats.Delivered)
		}
		want := groundTruth(t, env, "onair")
		for i := range want {
			if !bytes.Equal(v.frames[i], want[i]) {
				t.Fatalf("frame %d differs from the recording", i)
			}
		}
	})
}

func TestLateJoinerByteIdentity(t *testing.T) {
	bothStacks(t, liveEnv, func(t *testing.T, c caller, env *ServerEnv, sim *spa.SimNet, prefix string) {
		const recID = 11
		// History first: the joiner must replay these from storage, then
		// hand off to the live window without a gap or duplicate.
		recordBatch(t, c, "onair", recID, 10)

		addr := fmt.Sprintf("late-%s/video", prefix)
		v := watchLive(t, sim, addr)
		resp, err := c.call(&Request{Op: OpPlay, Movie: "onair", StreamAddr: addr})
		if err != nil || !resp.OK() {
			t.Fatalf("late join = %+v, %v", resp, err)
		}
		if resp.Length != 10 {
			t.Fatalf("join length = %d, want 10", resp.Length)
		}
		v.awaitFirst(t)
		recordBatch(t, c, "onair", recID, 10)
		if r, err := c.call(&Request{Op: OpStop, StreamID: recID}); err != nil || !r.OK() {
			t.Fatalf("stop = %+v, %v", r, err)
		}
		v.awaitDone(t)

		want := groundTruth(t, env, "onair")
		if len(want) != 20 {
			t.Fatalf("sealed movie has %d frames", len(want))
		}
		if len(v.frames) != len(want) {
			t.Fatalf("late joiner received %d frames, want %d", len(v.frames), len(want))
		}
		for i := range want {
			if !bytes.Equal(v.frames[i], want[i]) {
				t.Fatalf("frame %d differs across the history/live handoff", i)
			}
		}
	})
}

func TestDeleteDuringLiveBroadcast(t *testing.T) {
	bothStacks(t, liveEnv, func(t *testing.T, c caller, _ *ServerEnv, _ *spa.SimNet, _ string) {
		const recID = 9
		recordBatch(t, c, "onair", recID, 2)

		resp, err := c.call(&Request{Op: OpDelete, Movie: "onair"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusBadState {
			t.Fatalf("delete during broadcast = %v (%s), want %v", resp.Status, resp.Diagnostic, StatusBadState)
		}
		if r, err := c.call(&Request{Op: OpStop, StreamID: recID}); err != nil || !r.OK() {
			t.Fatalf("stop = %+v, %v", r, err)
		}
		if resp, _ = c.call(&Request{Op: OpDelete, Movie: "onair"}); !resp.OK() {
			t.Fatalf("delete after seal = %v (%s)", resp.Status, resp.Diagnostic)
		}
	})
}

// TestLiveBroadcastFanOut drives one broadcast into a pool of concurrent
// viewers joining in two waves, late joiners byte-identical to the sealed
// recording. Kept small enough to run under the race detector.
func TestLiveBroadcastFanOut(t *testing.T) {
	bothStacks(t, liveEnv, func(t *testing.T, c caller, env *ServerEnv, sim *spa.SimNet, prefix string) {
		const (
			recID   = 5
			viewers = 12
			batches = 8
			perCall = 3
		)
		recordBatch(t, c, "onair", recID, perCall)

		pool := make([]*liveViewer, viewers)
		join := func(i int) {
			addr := fmt.Sprintf("fan-%s-%d/video", prefix, i)
			pool[i] = watchLive(t, sim, addr)
			resp, err := c.call(&Request{Op: OpPlay, Movie: "onair", StreamAddr: addr})
			if err != nil || !resp.OK() {
				t.Fatalf("viewer %d join = %+v, %v", i, resp, err)
			}
		}
		for i := 0; i < viewers/2; i++ {
			join(i)
		}
		var total int64
		for b := 1; b < batches; b++ {
			total = recordBatch(t, c, "onair", recID, perCall)
			if b == batches/2 {
				for i := viewers / 2; i < viewers; i++ {
					join(i) // late wave joins mid-broadcast
				}
			}
		}
		if r, err := c.call(&Request{Op: OpStop, StreamID: recID}); err != nil || !r.OK() {
			t.Fatalf("stop = %+v, %v", r, err)
		}

		var wg sync.WaitGroup
		for i := range pool {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pool[i].awaitDone(t)
			}(i)
		}
		wg.Wait()
		want := groundTruth(t, env, "onair")
		if int64(len(want)) != total {
			t.Fatalf("sealed movie has %d frames, recorder reported %d", len(want), total)
		}
		for i, v := range pool {
			if len(v.frames) != len(want) {
				t.Fatalf("viewer %d received %d frames, want %d", i, len(v.frames), len(want))
			}
			for j := range want {
				if !bytes.Equal(v.frames[j], want[j]) {
					t.Fatalf("viewer %d frame %d differs from the recording", i, j)
				}
			}
		}
	})
}
