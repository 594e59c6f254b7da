package spa

import (
	"errors"
	"fmt"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/timewheel"
)

// wedgedAfter is how many consecutive timed-out reads a stream tolerates
// before the source is declared wedged and the stream aborted: skipping
// frames papers over a slow store, but a store that never answers would
// otherwise degrade into an endless FlagSkip spin.
const wedgedAfter = 8

// readResult carries one asynchronous storage read back from the worker.
type readResult struct {
	pos   int64
	frame []byte
	err   error
}

// timedSource bounds the storage reads of a frame source so one wedged
// read degrades one stream instead of wedging its sender (and, through a
// drained agent, the whole association teardown). Reads run on a worker
// goroutine; a read that misses the deadline makes Next consume the
// frame's position and return mtp.ErrFrameUnavailable, which the sender
// books as an adaptive drop (FlagSkip on the next transmitted frame).
//
// Only storage reads are bounded. A position at or past the source's
// current length is the live edge — the frame does not exist yet, and
// waiting for the producer is paced separately (TakeWaited) and canceled
// separately (CancelWait), so it stays unbounded here.
//
// NextBatch deliberately hands out nothing: every read must pass through
// the deadline machinery one frame at a time, so bounded-read streams trade
// write batching for the wedge protection (ReadTimeout defaults to 0, where
// batching stays on).
//
// The wrapper is not safe for concurrent use — like the FrameSource it
// wraps, it belongs to one sender goroutine.
type timedSource struct {
	inner   moviedb.FrameSource
	timeout time.Duration
	req     chan int64
	res     chan readResult
	pos     int64 // frame index the next Next call returns
	pending int64 // position of the outstanding read; -1 when none
	fails   int   // consecutive timed-out reads
	closed  bool
}

// boundReads wraps src so each storage read completes within timeout or
// costs exactly one frame.
func boundReads(src moviedb.FrameSource, timeout time.Duration) *timedSource {
	t := &timedSource{
		inner:   src,
		timeout: timeout,
		req:     make(chan int64),
		// Capacity one: at most one read is ever outstanding, so the
		// worker can always park its result and go back to waiting on req
		// — a consumer that timed out and moved on never strands it.
		res:     make(chan readResult, 1),
		pending: -1,
	}
	go t.worker()
	return t
}

// worker performs the actual (possibly blocking) reads. It owns the inner
// source while a request is in flight, and closes it on the way out so a
// close never races a read still using the source's buffers. A worker
// truly wedged inside the store cannot be reclaimed — un-cancellable I/O
// holds its goroutine — which is exactly why the consumer stops waiting
// for it instead.
func (t *timedSource) worker() {
	for pos := range t.req {
		var frame []byte
		var err error
		if t.inner.Pos() != pos {
			err = t.inner.SeekTo(pos)
		}
		if err == nil {
			frame, err = t.inner.Next()
		}
		t.res <- readResult{pos: pos, frame: frame, err: err}
	}
	_ = t.inner.Close()
}

func (t *timedSource) Len() int64 { return t.inner.Len() }

func (t *timedSource) Pos() int64 { return t.pos }

// SeekTo repositions the logical cursor. The inner source is repositioned
// lazily by whichever path performs the next read, so a stale in-flight
// read is simply discarded when its result arrives.
func (t *timedSource) SeekTo(pos int64) error {
	if n := t.Len(); pos < 0 || pos > n {
		return fmt.Errorf("spa: seek to %d outside 0..%d", pos, n)
	}
	t.pos = pos
	return nil
}

func (t *timedSource) Next() ([]byte, error) {
	if t.closed {
		return nil, errors.New("spa: source is closed")
	}
	// The read deadline runs on the shared process-wide timer wheel: a
	// per-Next time.NewTimer would put one runtime timer per frame per
	// bounded stream back on the hot path the wheel exists to clear.
	// Wheel-tick (~1ms) coarseness on a storage-read deadline is noise.
	deadline := timewheel.Default().NewTimer(t.timeout)
	defer deadline.Stop()
	for {
		if t.pending >= 0 {
			select {
			case r := <-t.res:
				t.pending = -1
				if r.pos != t.pos {
					continue // stale read from before a timeout or seek
				}
				t.fails = 0
				if r.err == nil {
					t.pos++
				}
				return r.frame, r.err
			case <-deadline.C():
				return t.unavailable()
			}
		}
		if t.pos >= t.inner.Len() {
			// Live edge (or true EOF): not a storage read. The worker is
			// idle here — no read is pending — so using the source
			// directly is serialized.
			if t.inner.Pos() != t.pos {
				if err := t.inner.SeekTo(t.pos); err != nil {
					return nil, err
				}
			}
			frame, err := t.inner.Next()
			if err == nil {
				t.pos++
				t.fails = 0
			}
			return frame, err
		}
		t.req <- t.pos
		t.pending = t.pos
	}
}

// NextBatch implements moviedb.FrameSource. It hands out nothing: see the
// type's comment.
func (t *timedSource) NextBatch(int) [][]byte { return nil }

// unavailable books one timed-out read: the frame's position is consumed
// and the sender sees mtp.ErrFrameUnavailable — unless the store has now
// missed wedgedAfter reads in a row, which aborts the stream outright.
func (t *timedSource) unavailable() ([]byte, error) {
	t.fails++
	if t.fails >= wedgedAfter {
		return nil, fmt.Errorf("spa: frame source wedged: %d consecutive reads exceeded %v", t.fails, t.timeout)
	}
	pos := t.pos
	t.pos++
	return nil, fmt.Errorf("%w: frame %d not read within %v", mtp.ErrFrameUnavailable, pos, t.timeout)
}

// Close stops accepting reads and hands the inner source to the worker to
// close, so an in-flight read never races the close. Safe when the worker
// is idle too — it closes the source on its way out either way.
func (t *timedSource) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.inner.CancelWait() // unblock a worker (or direct call) parked at the live edge
	close(t.req)
	return nil
}

// CancelWait lets Stop/Drain unwedge a live-edge wait running under the
// worker.
func (t *timedSource) CancelWait() { t.inner.CancelWait() }

// TakeWaited reads the inner source's live-edge accounting, which the
// contract makes safe while the worker blocks in Next.
func (t *timedSource) TakeWaited() time.Duration { return t.inner.TakeWaited() }

var _ moviedb.FrameSource = (*timedSource)(nil)
