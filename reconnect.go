package xmovie

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ReconnectConfig tunes a ReconnectClient.
type ReconnectConfig struct {
	// Dial opens a fresh client; required. It is invoked for the initial
	// connection and after every severed association, so it must be safe to
	// call repeatedly (e.g. close over Dial/NewClientConn with fixed
	// parameters).
	Dial func() (*Client, error)
	// BackoffBase is the first redial wait (default 50ms); each failed
	// attempt doubles it up to BackoffMax (default 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxAttempts bounds the attempts of one operation, and so its dials,
	// before it gives up (default 10).
	MaxAttempts int
	// Jitter spreads each wait uniformly over [wait*(1-Jitter), wait]
	// (0 = none, default 0.5) so a thundering herd of reconnecting clients
	// decorrelates instead of re-stampeding the server in lockstep.
	Jitter float64
	// Seed makes the jitter sequence deterministic (0 derives one from the
	// global source).
	Seed int64
	// OnRedial, when non-nil, observes every backoff wait before it starts:
	// the attempt number (1-based), the wait about to be slept, and the
	// error that caused it. Must be safe for concurrent use.
	OnRedial func(attempt int, wait time.Duration, cause error)
}

// ReconnectStats counts a ReconnectClient's recovery activity.
type ReconnectStats struct {
	// Redials is the number of successful re-established associations
	// (the initial connection is not counted).
	Redials int64
	// BusyWaits counts waits honouring a StatusBusy retry-after hint.
	BusyWaits int64
	// Resumes counts streams resumed with ResumeLastPlay.
	Resumes int64
}

// lastPlay remembers enough of the most recent Play/PlayFrom to resume it
// after a reconnect: the receiver reports how far it got, ResumeLastPlay
// restarts the transmission from there.
type lastPlay struct {
	movie string
	addr  string
	from  int64
	count int64
}

// ReconnectClient wraps a Client with crash resilience: when an operation
// fails because the association died (server restart, partition, timeout),
// it redials with exponential backoff plus jitter, re-establishes the
// association, re-selects the movie the session had selected, and retries
// the operation. A server shedding load with StatusBusy is honoured by
// waiting out its retry-after hint before redialing.
//
// Stream resumption is explicit: the data plane's receiver knows how many
// frames actually arrived, so after a reconnect the application calls
// ResumeLastPlay with the receiver's contiguous progress and the stream
// restarts there — the MTP sync path makes the receiver continue seamlessly,
// each frame delivered exactly once.
//
// Methods are safe for use from one goroutine at a time, like Client's.
type ReconnectClient struct {
	cfg ReconnectConfig

	mu       sync.Mutex
	c        *Client // nil until connected / after Close
	closed   bool
	dialed   bool // a first association was made: later ones are redials
	selected string
	last     *lastPlay
	rng      *rand.Rand

	redials   atomic.Int64
	busyWaits atomic.Int64
	resumes   atomic.Int64
}

// NewReconnectClient connects (with backoff) and returns the wrapper.
func NewReconnectClient(cfg ReconnectConfig) (*ReconnectClient, error) {
	if cfg.Dial == nil {
		return nil, errors.New("xmovie: ReconnectConfig.Dial is required")
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.5
	}
	if cfg.Jitter < 0 || cfg.Jitter > 1 {
		return nil, fmt.Errorf("xmovie: jitter %v outside 0..1", cfg.Jitter)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	r := &ReconnectClient{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	if err := r.call(func(*Client) error { return nil }); err != nil {
		return nil, err
	}
	return r, nil
}

// backoff returns the jittered wait for 0-based attempt n.
func (r *ReconnectClient) backoff(n int) time.Duration {
	wait := r.cfg.BackoffBase << uint(n)
	if wait <= 0 || wait > r.cfg.BackoffMax { // <<-overflow guards too
		wait = r.cfg.BackoffMax
	}
	if r.cfg.Jitter > 0 {
		r.mu.Lock()
		f := 1 - r.cfg.Jitter*r.rng.Float64()
		r.mu.Unlock()
		wait = time.Duration(float64(wait) * f)
	}
	return wait
}

// busyWait sleeps out a StatusBusy retry-after hint (falling back to the
// base backoff when the server sent none), with the same jitter spread.
func (r *ReconnectClient) busyWait(resp *Response) {
	wait := r.cfg.BackoffBase
	if resp.RetryAfterMs > 0 {
		wait = time.Duration(resp.RetryAfterMs) * time.Millisecond
	}
	if r.cfg.Jitter > 0 {
		r.mu.Lock()
		// Spread busy retries over [wait, wait*(1+Jitter)]: never earlier
		// than the server asked, never synchronized with the other shed
		// clients.
		f := 1 + r.cfg.Jitter*r.rng.Float64()
		r.mu.Unlock()
		wait = time.Duration(float64(wait) * f)
	}
	r.busyWaits.Add(1)
	time.Sleep(wait)
}

// call runs op against the live client, at most MaxAttempts times. Each
// attempt first makes sure there is a client, dialing one and re-selecting
// the session's movie if need be. A *StatusError means the server refused
// the operation or the re-select, and is returned at once; a StatusBusy one
// instead drops the client and waits out its hint. Any other failure means
// the association is gone: it is dropped, and the next attempt redials
// after an exponential backoff.
func (r *ReconnectClient) call(op func(c *Client) error) error {
	for attempt := 0; ; attempt++ {
		c, err := r.client()
		if err == nil {
			if err = op(c); err == nil {
				return nil
			}
		}
		var se *StatusError
		if errors.As(err, &se) && se.Response.Status != StatusBusy {
			return err
		}
		if c != nil {
			r.dropClient(c)
		}
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if attempt+1 == r.cfg.MaxAttempts {
			return fmt.Errorf("xmovie: gave up after %d attempts: %w", r.cfg.MaxAttempts, err)
		}
		if se != nil {
			r.busyWait(se.Response)
			continue
		}
		wait := r.backoff(attempt)
		if r.cfg.OnRedial != nil {
			r.cfg.OnRedial(attempt+1, wait, err)
		}
		time.Sleep(wait)
	}
}

// client returns the live client, or dials one and re-selects the session's
// movie on it.
func (r *ReconnectClient) client() (*Client, error) {
	r.mu.Lock()
	c, closed, selected := r.c, r.closed, r.selected
	r.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if c != nil {
		return c, nil
	}
	c, err := r.cfg.Dial()
	if err != nil {
		return nil, err
	}
	if selected != "" {
		if _, _, err := c.Select(selected); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("xmovie: reconnected but re-select %q failed: %w", selected, err)
		}
	}
	r.mu.Lock()
	closed = r.closed
	if !closed {
		if r.dialed {
			r.redials.Add(1)
		}
		r.c, r.dialed = c, true
	}
	r.mu.Unlock()
	if closed {
		_ = c.Close()
		return nil, ErrClosed
	}
	return c, nil
}

// dropClient closes and forgets c if it is still the current client.
func (r *ReconnectClient) dropClient(c *Client) {
	r.mu.Lock()
	if r.c == c {
		r.c = nil
	}
	r.mu.Unlock()
	_ = c.Close()
}

// Select opens a movie for the session; after any reconnect the selection
// is re-established automatically before operations retry.
func (r *ReconnectClient) Select(name string) (length int64, frameRate int64, err error) {
	err = r.call(func(c *Client) (err error) {
		length, frameRate, err = c.Select(name)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	r.mu.Lock()
	r.selected = name
	r.mu.Unlock()
	return length, frameRate, nil
}

// List returns the server's movie names.
func (r *ReconnectClient) List() (names []string, err error) {
	err = r.call(func(c *Client) (err error) {
		names, err = c.List()
		return err
	})
	return names, err
}

// Play starts streaming a movie to streamAddr and remembers it for
// ResumeLastPlay.
func (r *ReconnectClient) Play(name, streamAddr string) (int64, error) {
	return r.PlayFrom(name, streamAddr, 0, 0)
}

// PlayFrom starts streaming from a position with an optional count and
// remembers the play for ResumeLastPlay.
func (r *ReconnectClient) PlayFrom(name, streamAddr string, position, count int64) (streamID int64, err error) {
	err = r.call(func(c *Client) (err error) {
		streamID, err = c.PlayFrom(name, streamAddr, position, count)
		return err
	})
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.last = &lastPlay{movie: name, addr: streamAddr, from: position, count: count}
	r.mu.Unlock()
	return streamID, nil
}

// ResumeLastPlay restarts the most recent Play/PlayFrom at acked — the
// receiver's contiguous progress, tracked from the sequence numbers its
// deliver callback has seen — after an interruption. A count-bounded play keeps its original end position, so
// the resumed stream delivers exactly the frames the interruption cost. The
// receiver resynchronizes via MTP's sync flag; together that makes the
// delivered frame sequence identical to an uninterrupted run.
func (r *ReconnectClient) ResumeLastPlay(acked int64) (int64, error) {
	r.mu.Lock()
	lp := r.last
	r.mu.Unlock()
	if lp == nil {
		return 0, errors.New("xmovie: no play to resume")
	}
	if acked < lp.from {
		acked = lp.from
	}
	count := lp.count
	if count > 0 {
		count = lp.from + lp.count - acked
		if count <= 0 {
			return 0, errors.New("xmovie: play already complete")
		}
	}
	id, err := r.PlayFrom(lp.movie, lp.addr, acked, count)
	if err == nil {
		r.resumes.Add(1)
	}
	return id, err
}

// Stop cancels a stream and returns the position reached. Stopping clears
// the remembered play.
func (r *ReconnectClient) Stop(streamID int64) (position int64, err error) {
	err = r.call(func(c *Client) (err error) {
		position, err = c.Stop(streamID)
		return err
	})
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.last = nil
	r.mu.Unlock()
	return position, nil
}

// SeekTo repositions a live stream (see Client.SeekTo).
func (r *ReconnectClient) SeekTo(streamID, position int64) (reached int64, err error) {
	err = r.call(func(c *Client) (err error) {
		reached, err = c.SeekTo(streamID, position)
		return err
	})
	return reached, err
}

// AwaitEvent waits for the next stream event on the current association.
// Events do not survive a reconnect (they belong to the dead association's
// streams), so a severed association surfaces ErrClosed here rather than
// redialing — the application decides whether its stream needs resuming.
func (r *ReconnectClient) AwaitEvent(timeout time.Duration) (Event, error) {
	r.mu.Lock()
	c := r.c
	r.mu.Unlock()
	if c == nil {
		return Event{}, ErrClosed
	}
	return c.AwaitEvent(timeout)
}

// Client returns the current underlying client (nil while disconnected),
// for operations the wrapper does not mediate.
func (r *ReconnectClient) Client() *Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c
}

// Stats snapshots the recovery counters.
func (r *ReconnectClient) Stats() ReconnectStats {
	return ReconnectStats{
		Redials:   r.redials.Load(),
		BusyWaits: r.busyWaits.Load(),
		Resumes:   r.resumes.Load(),
	}
}

// Close releases the association and stops all future retries.
func (r *ReconnectClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.c
	r.c = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
