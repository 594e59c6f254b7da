// Package spa implements the Stream Provider Agent — the server-side
// entity of the paper's data plane (Fig. 2) that ships movie frames over
// MTP while the MCAM control agents only negotiate.
//
// An Agent owns the concurrent stream lifecycles of one association:
// start, pause, resume, live seek, stop, per-stream statistics and a
// graceful drain. Each stream pulls frames from a lazy moviedb.FrameSource
// (one chunk window resident, never the whole movie) and pushes them through
// an mtp.StreamSender, which paces transmission from the shared timer wheel
// and adapts to receiver feedback by dropping frames under congestion —
// XMovie's rate-adaptive delivery. The stream's goroutine is the sender's
// producer: it blocks in the source, never in a pacing wait.
//
// spa's own waits (the bounded-read deadline) must be on
// internal/timewheel, never on runtime timers — see the timerdiscipline
// analyzer.
//
//xmovie:pacing-package
package spa

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
)

// ErrNoStream reports a control operation addressing a stream that is not
// (or no longer) active.
var ErrNoStream = errors.New("spa: no active stream")

// EventKind classifies stream lifecycle notifications.
type EventKind int

// Stream event kinds, mirrored onto the MCAM Event PDU by the control
// layer.
const (
	EventStarted EventKind = iota + 1
	EventProgress
	EventCompleted
	EventAborted
)

// Event is a stream lifecycle notification. Events fire on the stream's
// own goroutine; handlers must be safe for that and must not block.
type Event struct {
	Kind     EventKind
	StreamID int64
	Position int64
	Detail   string
	// Stats carries the final transmission counters on Completed and
	// Aborted events (nil otherwise).
	Stats *mtp.StreamStats
}

// Totals aggregates stream outcomes across agents — the server-wide
// data-plane counters a load harness or operator reads. All fields are
// updated atomically as streams finish.
type Totals struct {
	Streams  int64
	Frames   int64 // frames transmitted
	Dropped  int64 // frames skipped by adaptive delivery
	Late     int64
	Bytes    int64
	Feedback int64 // receiver reports processed
}

func (t *Totals) add(st mtp.StreamStats) {
	atomic.AddInt64(&t.Streams, 1)
	atomic.AddInt64(&t.Frames, int64(st.Sent))
	atomic.AddInt64(&t.Dropped, int64(st.Dropped))
	atomic.AddInt64(&t.Late, int64(st.Late))
	atomic.AddInt64(&t.Bytes, st.Bytes)
	atomic.AddInt64(&t.Feedback, int64(st.Feedback))
}

// Snapshot returns a consistent-enough copy of the counters.
func (t *Totals) Snapshot() Totals {
	return Totals{
		Streams:  atomic.LoadInt64(&t.Streams),
		Frames:   atomic.LoadInt64(&t.Frames),
		Dropped:  atomic.LoadInt64(&t.Dropped),
		Late:     atomic.LoadInt64(&t.Late),
		Bytes:    atomic.LoadInt64(&t.Bytes),
		Feedback: atomic.LoadInt64(&t.Feedback),
	}
}

// Config assembles an Agent.
type Config struct {
	// Dialer opens MTP packet paths to stream addresses. Required for
	// Play to succeed.
	Dialer StreamDialer
	// Events receives lifecycle notifications; nil disables them.
	Events func(Event)
	// Window is the default adaptive-delivery window applied to plays
	// that do not set their own (0 keeps adaptation off: every frame is
	// sent, the pre-feedback behaviour).
	Window int
	// Totals, when non-nil, accumulates finished streams' counters —
	// typically one shared instance per server.
	Totals *Totals
	// TenantTotals, when non-nil, additionally accumulates the same
	// counters into a second bucket — the per-tenant accounting QoS
	// policies read, shared by every agent of one tenant.
	TenantTotals *Totals
	// Throttle, when non-nil, caps the aggregate outbound bandwidth of the
	// streams this agent starts: each frame reserves its bytes before
	// transmission and the wait shifts the pacing schedule like a pause.
	// Shared across agents, it becomes a tenant-wide cap.
	Throttle mtp.Throttle
	// ReadTimeout bounds each storage read feeding a stream's pacing loop
	// (0 = unbounded). A read that misses the bound costs the receiver one
	// skipped frame (FlagSkip) instead of wedging the sender; a store that
	// misses many in a row aborts that one stream. Live-edge waits are not
	// reads and stay unbounded.
	ReadTimeout time.Duration
}

// PlayOptions tune one stream.
type PlayOptions struct {
	// FrameRate paces the stream (frames/second); 0 sends flat out.
	FrameRate int
	// From is the first frame to send; Count bounds how many (0 = to the
	// end).
	From, Count int64
	// Window overrides the agent's default adaptive-delivery window
	// (< 0 forces adaptation off for this stream).
	Window int
	// EOSRepeats overrides the end-of-stream marker repetition
	// (0 = 5: a stream's termination must survive lossy paths, or the
	// receiver blocks until its own timeout).
	EOSRepeats int
}

// StreamStats describes one active or just-finished stream.
type StreamStats struct {
	ID int64
	mtp.StreamStats
}

// Agent is the Stream Provider Agent of one MCAM association.
type Agent struct {
	cfg Config

	mu       sync.Mutex
	streams  map[int64]*stream
	draining bool
	wg       sync.WaitGroup
}

type stream struct {
	id     int64
	sender *mtp.StreamSender
	conn   mtp.StreamConn
	src    moviedb.FrameSource // kept to cancel live-edge waits and bound seeks
}

// New creates an agent.
func New(cfg Config) *Agent {
	return &Agent{cfg: cfg, streams: make(map[int64]*stream)}
}

// Play starts an asynchronous paced transmission of src's frames
// [opt.From, opt.From+opt.Count) toward addr. The source is owned by the
// agent from this point: it is advanced by the stream and closed once the
// stream finishes — or right here when Play fails, so callers never have to
// clean up after an error (disk-backed sources hold file references that
// must not leak).
func (a *Agent) Play(id int64, addr string, src moviedb.FrameSource, opt PlayOptions) error {
	if a.cfg.Dialer == nil {
		_ = src.Close()
		return fmt.Errorf("spa: agent has no stream dialer")
	}
	total := src.Len()
	if opt.From < 0 || opt.From > total {
		_ = src.Close()
		return fmt.Errorf("spa: play position %d outside 0..%d", opt.From, total)
	}
	conn, err := a.cfg.Dialer.DialStream(addr)
	if err != nil {
		_ = src.Close()
		return err
	}
	if err := src.SeekTo(opt.From); err != nil {
		closeConn(conn)
		_ = src.Close()
		return err
	}
	if a.cfg.ReadTimeout > 0 {
		src = boundReads(src, a.cfg.ReadTimeout)
	}
	var end int64
	if opt.Count > 0 {
		// Always bound, even when From+Count covers the movie as it is now:
		// a live movie keeps growing, and a bounded play of one must still
		// terminate at its Count.
		end = opt.From + opt.Count
	}
	window := a.cfg.Window
	if opt.Window > 0 {
		window = opt.Window
	} else if opt.Window < 0 {
		window = 0
	}
	if opt.EOSRepeats == 0 {
		opt.EOSRepeats = 5
	}
	sender := mtp.NewStreamSender(conn, mtp.StreamConfig{
		StreamID:   uint32(id),
		FrameRate:  opt.FrameRate,
		Window:     window,
		EOSRepeats: opt.EOSRepeats,
		Throttle:   a.cfg.Throttle,
		End:        end,
	})
	st := &stream{id: id, sender: sender, conn: conn, src: src}

	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		closeConn(conn)
		_ = src.Close()
		return fmt.Errorf("spa: agent is draining")
	}
	if _, dup := a.streams[id]; dup {
		a.mu.Unlock()
		closeConn(conn)
		_ = src.Close()
		return fmt.Errorf("spa: stream %d already active", id)
	}
	a.streams[id] = st
	a.wg.Add(1)
	a.mu.Unlock()

	go a.run(st, src, opt.From)
	return nil
}

// closeConn releases a dialed packet conn when it owns a resource (UDP
// sockets do; shared SimNet endpoints expose no Close and are left alone).
func closeConn(conn mtp.StreamConn) {
	if c, ok := conn.(io.Closer); ok {
		_ = c.Close()
	}
}

// run drives one stream to completion on its own goroutine.
func (a *Agent) run(st *stream, src moviedb.FrameSource, base int64) {
	defer a.wg.Done()
	a.event(Event{Kind: EventStarted, StreamID: st.id, Position: base})
	stats, err := st.sender.Run(src)

	a.mu.Lock()
	delete(a.streams, st.id)
	a.mu.Unlock()
	_ = src.Close()
	closeConn(st.conn)
	if a.cfg.Totals != nil {
		a.cfg.Totals.add(stats)
	}
	if a.cfg.TenantTotals != nil {
		a.cfg.TenantTotals.add(stats)
	}
	switch {
	case err != nil:
		a.event(Event{Kind: EventAborted, StreamID: st.id, Position: stats.Pos,
			Detail: err.Error(), Stats: &stats})
	case !stats.Done:
		a.event(Event{Kind: EventAborted, StreamID: st.id, Position: stats.Pos,
			Detail: "stopped", Stats: &stats})
	default:
		a.event(Event{Kind: EventCompleted, StreamID: st.id, Position: stats.Pos, Stats: &stats})
	}
}

func (a *Agent) event(e Event) {
	if a.cfg.Events != nil {
		a.cfg.Events(e)
	}
}

func (a *Agent) lookup(id int64) (*stream, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoStream, id)
	}
	return st, nil
}

// Pause suspends a running stream at once: no frame departs after it
// returns.
func (a *Agent) Pause(id int64) error {
	st, err := a.lookup(id)
	if err != nil {
		return err
	}
	st.sender.Pause()
	return nil
}

// Resume continues a paused stream; the pause interval shifts the pacing
// schedule instead of producing a late burst.
func (a *Agent) Resume(id int64) error {
	st, err := a.lookup(id)
	if err != nil {
		return err
	}
	st.sender.Resume()
	return nil
}

// SeekStream repositions a live stream to frame pos without restarting
// it: frames the sender holds for the old position are discarded at once,
// the stream continues from pos and the receiver resynchronizes via the
// MTP sync flag. pos is validated against the movie length — the
// length at the moment of the call, for a movie that is still recording;
// seeking to the length — or past the end of a Count-bounded play window —
// ends the stream cleanly (or waits at the live edge on a live movie).
func (a *Agent) SeekStream(id, pos int64) error {
	st, err := a.lookup(id)
	if err != nil {
		return err
	}
	if total := st.src.Len(); pos < 0 || pos > total {
		return fmt.Errorf("spa: seek to %d outside 0..%d", pos, total)
	}
	st.sender.SeekTo(pos)
	return nil
}

// Stop cancels a stream and returns the position it reached. The stream's
// terminal event fires asynchronously once the sender unwinds. A stream
// blocked at the live edge of a recording movie has its wait canceled, so
// stopping never hangs on a producer that is between frames.
func (a *Agent) Stop(id int64) (int64, error) {
	st, err := a.lookup(id)
	if err != nil {
		return 0, err
	}
	st.sender.Stop()
	st.src.CancelWait()
	return st.sender.Position(), nil
}

// Stats returns a snapshot of one active stream's counters.
func (a *Agent) Stats(id int64) (StreamStats, error) {
	st, err := a.lookup(id)
	if err != nil {
		return StreamStats{}, err
	}
	return StreamStats{ID: id, StreamStats: st.sender.Stats()}, nil
}

// Active returns the number of in-flight streams.
func (a *Agent) Active() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.streams)
}

// Drain stops every stream and waits for their goroutines to unwind; the
// agent refuses new plays afterwards. Safe to call more than once and
// from any goroutine — the association teardown path.
func (a *Agent) Drain() {
	a.mu.Lock()
	a.draining = true
	for _, st := range a.streams {
		st.sender.Stop()
		st.src.CancelWait()
	}
	a.mu.Unlock()
	a.wg.Wait()
}
