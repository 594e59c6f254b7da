package spa

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
)

// slowSource is a frame source with per-position read delays, standing in
// for a store whose disk sometimes (or always) answers late.
type slowSource struct {
	frames [][]byte
	pos    int64
	delay  map[int64]time.Duration
	all    time.Duration // delay applied to every read

	mu     sync.Mutex
	closed bool
}

func (s *slowSource) Len() int64 { return int64(len(s.frames)) }
func (s *slowSource) Pos() int64 { return s.pos }

func (s *slowSource) Next() ([]byte, error) {
	if s.pos >= s.Len() {
		return nil, io.EOF
	}
	if d := s.delay[s.pos] + s.all; d > 0 {
		time.Sleep(d)
	}
	f := s.frames[s.pos]
	s.pos++
	return f, nil
}

func (s *slowSource) NextBatch(int) [][]byte    { return nil }
func (s *slowSource) CancelWait()               {}
func (s *slowSource) TakeWaited() time.Duration { return 0 }

func (s *slowSource) SeekTo(pos int64) error {
	s.pos = pos
	return nil
}

func (s *slowSource) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

func (s *slowSource) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func frames(n int) [][]byte {
	fs := make([][]byte, n)
	for i := range fs {
		fs[i] = []byte{byte(i)}
	}
	return fs
}

func TestBoundReadSkipsSlowFrame(t *testing.T) {
	// The slow read finishes within a second timeout window, so exactly one
	// frame is lost (a read slower than that costs one frame per window —
	// the store is still wedged, and real time keeps passing).
	inner := &slowSource{frames: frames(8), delay: map[int64]time.Duration{3: 220 * time.Millisecond}}
	src := boundReads(inner, 150*time.Millisecond)
	defer src.Close()

	var got []int
	var unavailable []int64
	for {
		pos := src.Pos()
		f, err := src.Next()
		switch {
		case err == io.EOF:
			if want := int64(8); src.Pos() != want {
				t.Fatalf("final pos %d, want %d", src.Pos(), want)
			}
			if len(got) != 7 || unavailable[0] != 3 {
				t.Fatalf("delivered %v, unavailable %v", got, unavailable)
			}
			return
		case errors.Is(err, mtp.ErrFrameUnavailable):
			unavailable = append(unavailable, pos)
			if src.Pos() != pos+1 {
				t.Fatalf("unavailable frame %d did not consume its position (pos %d)", pos, src.Pos())
			}
			if len(unavailable) > 1 {
				t.Fatalf("more than one frame lost to one slow read: %v", unavailable)
			}
		case err != nil:
			t.Fatalf("frame %d: %v", pos, err)
		default:
			got = append(got, int(f[0]))
		}
	}
}

func TestBoundReadWedgedStoreAbortsStream(t *testing.T) {
	inner := &slowSource{frames: frames(64), all: 50 * time.Millisecond}
	src := boundReads(inner, 5*time.Millisecond)
	defer src.Close()

	for i := 0; i < wedgedAfter-1; i++ {
		if _, err := src.Next(); !errors.Is(err, mtp.ErrFrameUnavailable) {
			t.Fatalf("read %d: %v, want ErrFrameUnavailable", i, err)
		}
	}
	_, err := src.Next()
	if err == nil || errors.Is(err, mtp.ErrFrameUnavailable) {
		t.Fatalf("read %d should be terminal, got %v", wedgedAfter-1, err)
	}
	if !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("terminal error %v", err)
	}
}

func TestBoundReadLiveEdgeIsExempt(t *testing.T) {
	st := moviedb.NewMemStore()
	if err := st.Create(&moviedb.Movie{Name: "live", Frames: [][]byte{{1}}}); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Record("live")
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Get("live")
	if err != nil {
		t.Fatal(err)
	}
	src := boundReads(m.Open(), 30*time.Millisecond)
	defer src.Close()

	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	// The next frame does not exist yet: the producer appends it well after
	// the read bound. An edge wait must ride it out, not skip it.
	go func() {
		time.Sleep(200 * time.Millisecond)
		_, _ = rec.Append([][]byte{{2}})
		_ = rec.Close()
	}()
	f, err := src.Next()
	if err != nil || f[0] != 2 {
		t.Fatalf("edge frame = %v, %v", f, err)
	}
	if w := src.TakeWaited(); w < 100*time.Millisecond {
		t.Fatalf("edge wait not booked: %v", w)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after seal: %v, want EOF", err)
	}
}

func TestAgentDegradesSlowStoreWithSkips(t *testing.T) {
	sim := NewSimNet()
	defer sim.Close()
	log := &eventLog{}
	a := New(Config{Dialer: sim, Events: log.add, ReadTimeout: 120 * time.Millisecond})
	defer a.Drain()

	inner := &slowSource{frames: frames(30), delay: map[int64]time.Duration{10: 160 * time.Millisecond}}
	done := receive(t, sim, "slow/v", netsim.Config{}, mtp.ReceiverConfig{})
	if err := a.Play(7, "slow/v", inner, PlayOptions{}); err != nil {
		t.Fatal(err)
	}
	ev := log.await(t, EventCompleted, 7)
	if ev.Stats == nil || ev.Stats.Dropped != 1 || ev.Stats.Sent != 29 {
		t.Fatalf("completion stats %+v", ev.Stats)
	}
	st := <-done
	if st.Delivered != 29 || st.Lost != 1 {
		t.Fatalf("receiver saw %d delivered, %d lost", st.Delivered, st.Lost)
	}
	if !inner.isClosed() {
		t.Error("inner source not closed through the bounded wrapper")
	}
}
