package moviedb

import (
	"sync"
	"sync/atomic"
	"time"
)

// Live broadcast support: a movie that is being recorded stays readable.
//
// While at least one Recorder is open on a movie, the movie is "live": the
// store keeps a LiveWindow — a bounded in-memory ring of the most recently
// appended frames plus the movie's authoritative length — and every append
// publishes its frames into it exactly once. FrameSources opened on the
// movie serve history from the backing storage (materialized frames, the
// synth generator, or the disk segment through the chunk cache) and, on
// reaching the live edge, wait on the window instead of returning io.EOF;
// each published frame is then handed to all waiting sources zero-copy
// from the ring. When the last Recorder closes, the window seals and every
// source drains to the final length and ends normally.

// DefaultLiveRingFrames is the live window's ring capacity: large enough
// that a viewer briefly descheduled still finds its next frame in RAM,
// small enough that a live movie costs no more memory than one cached
// chunk run. Readers that fall further behind are not lost — they re-read
// the published frames from backing storage.
const DefaultLiveRingFrames = 256

// ErrLive reports an operation that cannot apply to a movie while a
// recording session holds it open (e.g. Delete). The MCAM layer maps it to
// StatusBadState: the client can stop the recording and retry.
var ErrLive = &liveError{}

type liveError struct{}

func (*liveError) Error() string { return "moviedb: movie is live (recording in progress)" }

// Recorder is an open append session on one movie — the ingest half of the
// readable-while-appendable contract. While any Recorder is open the movie
// is live: sources follow its growing tail, and Delete refuses with
// ErrLive. Append is safe to call concurrently with readers; Close ends
// the session, and when the last session on the movie closes, the live
// window seals and tailing sources end at the final frame.
type Recorder interface {
	// Append stores the frames at the movie's tail and publishes them to
	// tailing sources. It copies the payloads; the caller keeps ownership
	// of the slices. It returns the movie's new total length.
	Append(frames [][]byte) (int64, error)
	// Len returns the movie's current total length in frames.
	Len() int64
	// Close ends the session. Idempotent.
	Close() error
}

// LiveWindow is the shared live state of one recording phase: the movie's
// authoritative length, a bounded ring of the newest frames, and the wake
// channel tailing sources block on. Stores create one per recording phase
// and publish every appended frame into it; sources consult the current
// window only at the live edge.
type LiveWindow struct {
	mu sync.Mutex
	// ring[i%len(ring)] holds frame i for i in [ringBase, length).
	ring     [][]byte
	ringBase int64
	start    int64 // movie length when this phase began
	length   int64 // movie length now (absolute frame count)
	sealed   bool
	sessions int
	wake     chan struct{} // closed and replaced on every publish and on seal
}

func newLiveWindow(base int64, ringFrames int) *LiveWindow {
	if ringFrames <= 0 {
		ringFrames = DefaultLiveRingFrames
	}
	return &LiveWindow{
		ring:     make([][]byte, ringFrames),
		ringBase: base,
		start:    base,
		length:   base,
		wake:     make(chan struct{}),
	}
}

// addSession joins the window as a recorder; it reports false when the
// window already sealed (the store then starts a fresh phase).
func (w *LiveWindow) addSession() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed {
		return false
	}
	w.sessions++
	return true
}

// endSession leaves the window; the last session out seals it, releasing
// every waiting source to drain and end.
func (w *LiveWindow) endSession() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sessions--; w.sessions > 0 || w.sealed {
		return
	}
	w.sealed = true
	close(w.wake)
}

// publish appends frames to the ring and wakes waiting sources. The
// caller must publish under the same lock that made the frames visible in
// backing storage, so ring indices always equal storage indices and a
// woken waiter finds its frame. The ring retains the slices as given —
// callers pass the copies they stored, so publication costs no extra copy.
//
//xmovie:requires-lock the storage lock that made the frames visible (ring indices must equal storage indices)
func (w *LiveWindow) publish(frames [][]byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed {
		return
	}
	for _, f := range frames {
		w.ring[w.length%int64(len(w.ring))] = f
		w.length++
	}
	if low := w.length - int64(len(w.ring)); low > w.ringBase {
		w.ringBase = low
	}
	close(w.wake)
	w.wake = make(chan struct{})
}

// Len returns the movie's current total length.
func (w *LiveWindow) Len() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.length
}

// Live reports whether the window still accepts appends.
func (w *LiveWindow) Live() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.sealed
}

// Frame returns frame i from the ring, zero-copy, when it is still
// resident — the steady-state live-tail read. A miss (the reader fell more
// than the ring capacity behind, or i predates this phase) sends the
// reader back to backing storage.
func (w *LiveWindow) Frame(i int64) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if i < w.ringBase || i >= w.length {
		return nil, false
	}
	return w.ring[i%int64(len(w.ring))], true
}

// waitAt blocks until frame i exists (true), or until the window seals
// without it or cancel closes (false: the source should end). The second
// result is the time spent blocked, so senders can shift their pacing
// schedule the way they do for a pause.
func (w *LiveWindow) waitAt(i int64, cancel <-chan struct{}) (bool, time.Duration) {
	var blocked time.Duration
	for {
		w.mu.Lock()
		if i < w.length {
			w.mu.Unlock()
			return true, blocked
		}
		if w.sealed {
			w.mu.Unlock()
			return false, blocked
		}
		wake := w.wake
		w.mu.Unlock()
		t0 := time.Now()
		select {
		case <-wake:
			blocked += time.Since(t0)
		case <-cancel:
			return false, blocked + time.Since(t0)
		}
	}
}

// tailCursor bundles the per-source live-edge machinery shared by the
// store-backed sources, which embed it for FrameSource's CancelWait and
// TakeWaited: a cancel channel that aborts a wait in progress (the SPA uses
// it to unwedge a stream blocked at the edge during Stop/Drain) and the
// accumulated blocked time the MTP sender drains.
type tailCursor struct {
	cancelOnce sync.Once
	cancel     chan struct{}
	waited     atomic.Int64
}

func newTailCursor() tailCursor {
	return tailCursor{cancel: make(chan struct{})}
}

// await blocks at the live edge of w until frame pos exists; false means
// the source should return io.EOF (sealed or canceled).
func (t *tailCursor) await(w *LiveWindow, pos int64) bool {
	ok, blocked := w.waitAt(pos, t.cancel)
	if blocked > 0 {
		t.waited.Add(int64(blocked))
	}
	return ok
}

// CancelWait aborts any wait at the live edge, now and in the future: the
// source's next (or current) edge wait returns io.EOF. Safe from any
// goroutine, idempotent.
func (t *tailCursor) CancelWait() {
	t.cancelOnce.Do(func() { close(t.cancel) })
}

// TakeWaited returns and resets the cumulative time this source spent
// blocked at the live edge since the previous call, which keeps paced
// senders from booking edge waits as overdue.
func (t *tailCursor) TakeWaited() time.Duration {
	return time.Duration(t.waited.Swap(0))
}
