package moviedb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// Store-level tests for the readable-while-appendable contract: a source
// opened on a recording movie follows the live tail instead of hitting
// io.EOF, late joiners replay history and hand off to the live window at
// the boundary frame, and only sealing the recording ends the stream.

// liveStores builds each store flavour fresh per subtest.
func liveStores(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Run("mem", func(t *testing.T) {
		fn(t, NewMemStore())
	})
	t.Run("disk", func(t *testing.T) {
		s, err := OpenDiskStore(t.TempDir(), DiskConfig{ChunkFrames: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
}

// liveFrame builds a deterministic, recognisable payload for index i.
func liveFrame(i int) []byte {
	return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 24)
}

func TestLiveTailFollowsRecorder(t *testing.T) {
	liveStores(t, func(t *testing.T, s Store) {
		const total = 120
		if err := s.Create(&Movie{Name: "take"}); err != nil {
			t.Fatal(err)
		}
		rec, err := s.Record("take")
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Get("take")
		if err != nil {
			t.Fatal(err)
		}
		src := m.Open()
		defer src.Close()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rec.Close()
			for i := 0; i < total; i += 5 {
				batch := make([][]byte, 5)
				for j := range batch {
					batch[j] = liveFrame(i + j)
				}
				if _, err := rec.Append(batch); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()

		// The viewer starts before a single frame exists and must block at
		// the live edge, never see io.EOF mid-broadcast, and drain exactly
		// the published frames once the recorder seals.
		got := drain(t, src)
		wg.Wait()
		if len(got) != total {
			t.Fatalf("viewer drained %d frames, want %d", len(got), total)
		}
		for i := range got {
			if !bytes.Equal(got[i], liveFrame(i)) {
				t.Fatalf("frame %d differs from what the recorder published", i)
			}
		}
		// Sealed: a fresh source sees a normal finite movie.
		m, err = s.Get("take")
		if err != nil {
			t.Fatal(err)
		}
		if m.FrameCount() != total {
			t.Fatalf("sealed count = %d", m.FrameCount())
		}
	})
}

func TestLateJoinerHandoff(t *testing.T) {
	liveStores(t, func(t *testing.T, s Store) {
		if err := s.Create(&Movie{Name: "join"}); err != nil {
			t.Fatal(err)
		}
		rec, err := s.Record("join")
		if err != nil {
			t.Fatal(err)
		}
		// Publish enough history that, on disk, the joiner replays whole
		// chunks from storage well behind the live window's ring.
		history := 40
		for i := 0; i < history; i++ {
			if _, err := rec.Append([][]byte{liveFrame(i)}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := s.Get("join")
		if err != nil {
			t.Fatal(err)
		}
		src := m.Open()
		defer src.Close()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rec.Close()
			for i := history; i < history+30; i++ {
				if _, err := rec.Append([][]byte{liveFrame(i)}); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		got := drain(t, src)
		wg.Wait()
		if len(got) != history+30 {
			t.Fatalf("late joiner drained %d frames, want %d", len(got), history+30)
		}
		for i := range got {
			if !bytes.Equal(got[i], liveFrame(i)) {
				t.Fatalf("frame %d differs across the history/live handoff", i)
			}
		}
	})
}

func TestDeleteRefusedWhileLive(t *testing.T) {
	liveStores(t, func(t *testing.T, s Store) {
		if err := s.Create(&Movie{Name: "onair"}); err != nil {
			t.Fatal(err)
		}
		rec, err := s.Record("onair")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Append([][]byte{liveFrame(0)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("onair"); !errors.Is(err, ErrLive) {
			t.Fatalf("delete during recording = %v, want ErrLive", err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("onair"); err != nil {
			t.Fatalf("delete after seal = %v", err)
		}
	})
}

func TestCancelWaitUnblocksViewer(t *testing.T) {
	liveStores(t, func(t *testing.T, s Store) {
		if err := s.Create(&Movie{Name: "hang"}); err != nil {
			t.Fatal(err)
		}
		rec, err := s.Record("hang")
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		m, err := s.Get("hang")
		if err != nil {
			t.Fatal(err)
		}
		src := m.Open()
		defer src.Close()
		done := make(chan error, 1)
		go func() {
			_, err := src.Next()
			done <- err
		}()
		time.Sleep(5 * time.Millisecond)
		src.CancelWait()
		select {
		case err := <-done:
			if err != io.EOF {
				t.Fatalf("cancelled wait returned %v, want io.EOF", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("viewer still blocked after CancelWait")
		}
	})
}

func TestRecordSecondPhaseResumesLive(t *testing.T) {
	// A movie may go live, seal, and go live again: the second Record
	// session installs a fresh window and open sources follow it.
	liveStores(t, func(t *testing.T, s Store) {
		if err := s.Create(&Movie{Name: "twice"}); err != nil {
			t.Fatal(err)
		}
		for phase := 0; phase < 2; phase++ {
			rec, err := s.Record("twice")
			if err != nil {
				t.Fatalf("phase %d: %v", phase, err)
			}
			for i := 0; i < 10; i++ {
				if _, err := rec.Append([][]byte{liveFrame(phase*10 + i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		}
		m, err := s.Get("twice")
		if err != nil {
			t.Fatal(err)
		}
		src := m.Open()
		defer src.Close()
		got := drain(t, src)
		if len(got) != 20 {
			t.Fatalf("drained %d frames over two phases", len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], liveFrame(i)) {
				t.Fatalf("frame %d differs", i)
			}
		}
	})
}

func TestConcurrentRecorderSessionsShareWindow(t *testing.T) {
	// Two recorder handles on the same movie interleave appends through one
	// shared live window; the movie seals only when the last one closes.
	liveStores(t, func(t *testing.T, s Store) {
		if err := s.Create(&Movie{Name: "duet"}); err != nil {
			t.Fatal(err)
		}
		a, err := s.Record("duet")
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Record("duet")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Append([][]byte{liveFrame(0)}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Append([][]byte{liveFrame(1)}); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		// Still live: b holds the window open.
		if err := s.Delete("duet"); !errors.Is(err, ErrLive) {
			t.Fatalf("delete with one recorder left = %v, want ErrLive", err)
		}
		n, err := b.Append([][]byte{liveFrame(2)})
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("length after three appends = %d", n)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := s.Get("duet")
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, m.Open())
		if len(got) != 3 {
			t.Fatalf("sealed movie has %d frames", len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], liveFrame(i)) {
				t.Fatalf("frame %d differs (%v)", i, fmt.Sprintf("% x", got[i][:4]))
			}
		}
	})
}
