package mcam

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
)

// Regression tests for MCAM protocol semantics, each run over both
// control stacks:
//
//   - Deselect without a selection returns StatusNotSelected (it used to
//     succeed silently, against the access model every other op enforces);
//   - Record onto a lazily synthesized movie works and stays lazy — the
//     readable-while-appendable contract lets every store append behind
//     any content, opaque generators included;
//   - Delete of a sealed movie mid-play succeeds and leaves the running
//     stream undisturbed (sources outlive the catalogue entry); only a
//     live broadcast refuses deletion, covered in live_test.go.

// bothStacks runs fn once against a hand-coded pair and once against a
// full Estelle-generated stack over the same environment builder.
func bothStacks(t *testing.T, makeEnv func(t *testing.T) (*ServerEnv, *SimNet), fn func(t *testing.T, c caller, env *ServerEnv, sim *SimNet, prefix string)) {
	t.Run("isode", func(t *testing.T) {
		env, sim := makeEnv(t)
		client := runIsodePair(t, env)
		fn(t, isodeCaller{client}, env, sim, "isode")
	})
	t.Run("estelle", func(t *testing.T) {
		env, sim := makeEnv(t)
		app, _ := buildEstelleStack(t, env)
		if err := app.Connect("mcam-server", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		fn(t, estelleCaller{app}, env, sim, "estelle")
	})
}

func TestDeselectWithoutSelection(t *testing.T) {
	bothStacks(t, newTestEnv, func(t *testing.T, c caller, _ *ServerEnv, _ *SimNet, _ string) {
		resp, err := c.call(&Request{Op: OpDeselect})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusNotSelected {
			t.Fatalf("deselect with nothing selected = %v (%s)", resp.Status, resp.Diagnostic)
		}
		if resp, _ = c.call(&Request{Op: OpSelect, Movie: "movie-0"}); !resp.OK() {
			t.Fatalf("select = %+v", resp)
		}
		if resp, _ = c.call(&Request{Op: OpDeselect}); !resp.OK() {
			t.Fatalf("deselect with selection = %+v", resp)
		}
		// The selection is gone: a second deselect has nothing to drop.
		if resp, _ = c.call(&Request{Op: OpDeselect}); resp.Status != StatusNotSelected {
			t.Fatalf("second deselect = %v", resp.Status)
		}
	})
}

// lazyRecordEnv is newTestEnv plus a lazily synthesized movie — the shape
// of the load harness catalogue that OpRecord used to fail on.
func lazyRecordEnv(t *testing.T) (*ServerEnv, *SimNet) {
	env, sim := newTestEnv(t)
	if err := env.Store.Create(moviedb.SynthesizeLazy(moviedb.SynthConfig{
		Name: "lazy-take", Frames: 20, FrameSize: 16,
	})); err != nil {
		t.Fatal(err)
	}
	return env, sim
}

func TestRecordOntoLazyMovie(t *testing.T) {
	bothStacks(t, lazyRecordEnv, func(t *testing.T, c caller, env *ServerEnv, _ *SimNet, _ string) {
		resp, err := c.call(&Request{Op: OpRecord, Movie: "lazy-take", Device: "cam1", Count: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK() {
			t.Fatalf("record onto lazy movie = %v (%s)", resp.Status, resp.Diagnostic)
		}
		if resp.Length != 25 {
			t.Fatalf("length after record = %d, want 25", resp.Length)
		}
		// The synthesized frames still serve byte-identically with the
		// recording appended after them.
		m, err := env.Store.Get("lazy-take")
		if err != nil {
			t.Fatal(err)
		}
		if m.FrameCount() != 25 {
			t.Fatalf("stored %d frames", m.FrameCount())
		}
		want := moviedb.Synthesize(moviedb.SynthConfig{Name: "lazy-take", Frames: 20, FrameSize: 16}).Frames
		src := m.Open()
		defer src.Close()
		for i := range want {
			f, err := src.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(f, want[i]) {
				t.Fatalf("materialized frame %d differs from the lazy original", i)
			}
		}
	})
}

// brokenContent is lazy content whose generator fails on every read — the
// most hostile base a movie can carry.
type brokenContent struct{}

func (brokenContent) Len() int64                { return 3 }
func (brokenContent) Open() moviedb.FrameSource { return brokenSource{} }

type brokenSource struct{}

func (brokenSource) Len() int64                { return 3 }
func (brokenSource) Pos() int64                { return 0 }
func (brokenSource) Next() ([]byte, error)     { return nil, errors.New("generator exploded") }
func (brokenSource) NextBatch(int) [][]byte    { return nil }
func (brokenSource) SeekTo(int64) error        { return nil }
func (brokenSource) CancelWait()               {}
func (brokenSource) TakeWaited() time.Duration { return 0 }
func (brokenSource) Close() error              { return nil }

func TestRecordOntoOpaqueContent(t *testing.T) {
	// Recording never needs to materialize the existing content — appended
	// frames live beside the base, so even content that cannot be read
	// accepts a recording. (The old contract materialized on append and
	// had to answer StatusNotSupported here.)
	env, _ := newTestEnv(t)
	if err := env.Store.Create(&moviedb.Movie{Name: "opaque", Content: brokenContent{}}); err != nil {
		t.Fatal(err)
	}
	client := runIsodePair(t, env)
	resp, err := client.Call(&Request{Op: OpRecord, Movie: "opaque", Device: "cam1", Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatalf("record behind opaque content = %v (%s)", resp.Status, resp.Diagnostic)
	}
	if resp.Length != 5 {
		t.Fatalf("length after record = %d, want 3 base + 2 recorded", resp.Length)
	}
}

// slowPlayEnv holds one long, slow movie so control operations land
// mid-stream deterministically.
func slowPlayEnv(t *testing.T) (*ServerEnv, *SimNet) {
	env, sim := newTestEnv(t)
	store := moviedb.NewMemStore()
	long := moviedb.Synthesize(moviedb.SynthConfig{Name: "long", Frames: 10000, FrameRate: 50, FrameSize: 64})
	if err := store.Create(long); err != nil {
		t.Fatal(err)
	}
	env.Store = store
	return env, sim
}

func TestDeleteWhileStreamingKeepsStreamAlive(t *testing.T) {
	// A sealed movie may be deleted mid-play: the catalogue entry vanishes
	// immediately, while the running stream keeps its open source and is
	// undisturbed. (Only a live broadcast — an open recording session —
	// refuses deletion; see live_test.go.)
	bothStacks(t, slowPlayEnv, func(t *testing.T, c caller, env *ServerEnv, sim *SimNet, prefix string) {
		addr := fmt.Sprintf("del-%s/video", prefix)
		end, err := sim.Listen(addr, netsim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		recvDone := make(chan mtp.RecvStats, 1)
		gotSome := make(chan struct{})
		once := false
		go func() {
			st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, func(mtp.Frame) {
				if !once {
					once = true
					close(gotSome)
				}
			})
			recvDone <- st
		}()
		resp, err := c.call(&Request{Op: OpPlay, Movie: "long", StreamAddr: addr})
		if err != nil || !resp.OK() {
			t.Fatalf("play = %+v, %v", resp, err)
		}
		id := resp.StreamID
		select {
		case <-gotSome:
		case <-time.After(10 * time.Second):
			t.Fatal("stream never started delivering")
		}

		// Mid-stream delete succeeds and removes the catalogue entry.
		resp, err = c.call(&Request{Op: OpDelete, Movie: "long"})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK() {
			t.Fatalf("delete while streaming = %v (%s)", resp.Status, resp.Diagnostic)
		}
		if _, err := env.Store.Get("long"); err == nil {
			t.Fatal("movie still in catalogue after delete")
		}
		// The stream is undisturbed: it keeps delivering after the delete
		// and terminates normally on Stop.
		if r, err := c.call(&Request{Op: OpStop, StreamID: id}); err != nil || !r.OK() {
			t.Fatalf("stop = %+v, %v", r, err)
		}
		select {
		case st := <-recvDone:
			if st.Delivered == 0 {
				t.Fatal("stream delivered nothing")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stream did not terminate after stop")
		}
		// A second delete finds nothing.
		if resp, _ = c.call(&Request{Op: OpDelete, Movie: "long"}); resp.Status != StatusNoSuchMovie {
			t.Fatalf("second delete = %v (%s), want %v", resp.Status, resp.Diagnostic, StatusNoSuchMovie)
		}
	})
}
