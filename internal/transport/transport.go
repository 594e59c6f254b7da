// Package transport provides the transport services the MCAM control plane
// runs on: an in-memory reliable pipe (the paper's "simulated transport
// layer pipe", §5.1), TPKT-style framing over TCP (the stand-in for the
// ISODE TP stack), and Estelle module definitions exposing either as an
// ISO-style transport service to the layers above.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn is a reliable, ordered, message-preserving transport connection.
type Conn interface {
	// Send transmits one message. Implementations must not retain p after
	// Send returns, so callers may reuse their encode buffers.
	Send(p []byte) error
	// Recv blocks for the next message; it returns io.EOF after the peer
	// closes. The result is owned by the caller.
	Recv() ([]byte, error)
	// Close tears the connection down in both directions.
	Close() error
}

// ErrClosed is returned by Send on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// pipeConn is one end of an in-memory connection. Its inbound queue is a
// channel bounded by the pipe's capacity, read either by Recv or, once a
// receiver hook is installed (setReceiver), by tryRecv on the goroutine the
// hook wakes: then no goroutine waits on the queue.
//
// A receiver parked in Recv waits on the queue alone. Whatever else must
// wake it — a close of either end, the receive deadline's timer — arrives
// in-band as a nil entry (a message is never nil), after the state it
// announces is set: the woken receiver skips the nil and looks again. A
// wake that finds the queue full is dropped, since then the receiver is
// not parked and looks at that state once it has drained a message.
type pipeConn struct {
	out  chan<- []byte
	in   chan []byte
	peer *pipeConn
	// life is shared by both ends: the pipe is dead once either closes.
	life *pipeLife

	// onRecv is the receiver hook (nil until installed): called on the
	// writer's goroutine after each message lands in this end's queue, and
	// when either end closes.
	onRecv atomic.Pointer[func()]

	// deadline bounds Recv (nanoseconds on the monotonic clock since
	// epoch; 0 = none). See SetRecvDeadline.
	deadline atomic.Int64
	// timerAt is when timer is due to fire (0 = not armed); the timer
	// clears it as it fires. Only the receiver arms timer.
	timerAt atomic.Int64
	timer   *time.Timer
	// arms counts the timer's arms (read by tests).
	arms int
}

// pipeLife is a pipe's close state, shared by its two ends.
type pipeLife struct {
	closed atomic.Bool
	// dead closes with the first Close, releasing Sends blocked on a full
	// queue.
	dead chan struct{}
}

// epoch is the origin of pipe deadlines: durations since it read the
// monotonic clock.
var epoch = time.Now()

// Pipe returns two connected in-memory transport endpoints with queue
// capacity cap (0 means 1024).
func Pipe(capacity int) (Conn, Conn) {
	if capacity <= 0 {
		capacity = 1024
	}
	ab := make(chan []byte, capacity)
	ba := make(chan []byte, capacity)
	life := &pipeLife{dead: make(chan struct{})}
	a := &pipeConn{out: ab, in: ba, life: life}
	b := &pipeConn{out: ba, in: ab, life: life}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn; p is copied before it crosses the channel.
//
//xmovie:noretain p
func (c *pipeConn) Send(p []byte) error {
	// With room in the queue, the blocking select below could still pick
	// the send after a close.
	if c.life.closed.Load() {
		return ErrClosed
	}
	buf := make([]byte, len(p))
	copy(buf, p)
	select {
	case c.out <- buf:
	default:
		// Full: wait for room or a close.
		select {
		case c.out <- buf:
		case <-c.life.dead:
			return ErrClosed
		}
	}
	c.peer.announce()
	return nil
}

// wake queues a nil wake for the receiver of q, unless q is full.
func wake(q chan []byte) {
	select {
	case q <- nil:
	default:
	}
}

// announce calls the receiver hook, if one is installed.
func (c *pipeConn) announce() {
	if fn := c.onRecv.Load(); fn != nil {
		(*fn)()
	}
}

// setReceiver installs fn as the receiver hook. What was queued before,
// and a close that already happened, fn never hears of: the installer takes
// them with tryRecv right after installing (a Send that read no hook had
// queued its message by then).
func (c *pipeConn) setReceiver(fn func()) { c.onRecv.Store(&fn) }

// take returns the next queued message without blocking, skipping wakes;
// nil when nothing is queued.
func (c *pipeConn) take() []byte {
	for {
		select {
		case p := <-c.in:
			if p != nil {
				return p
			}
		default:
			return nil
		}
	}
}

// tryRecv takes the next queued message without blocking. It returns nil,
// nil when nothing is queued, and io.EOF once the pipe is closed and the
// queue drained.
func (c *pipeConn) tryRecv() ([]byte, error) {
	if p := c.take(); p != nil {
		return p, nil
	}
	if !c.life.closed.Load() {
		return nil, nil
	}
	return c.drained()
}

// drained is the receive of a closed pipe: what was queued before the
// close, then io.EOF. It looks at the queue after the close was seen, so a
// message queued before the close cannot slip past it.
func (c *pipeConn) drained() ([]byte, error) {
	if p := c.take(); p != nil {
		return p, nil
	}
	return nil, io.EOF
}

// Recv implements Conn. Messages queued before a close of either end come
// first, then io.EOF. Under a receive deadline (SetRecvDeadline) a Recv
// still waiting at the deadline returns ErrDeadline, and the next Recv
// delivers whatever arrives later.
func (c *pipeConn) Recv() ([]byte, error) {
	for {
		if c.life.closed.Load() {
			return c.drained()
		}
		if dl := c.deadline.Load(); dl != 0 {
			// A queued message needs no timer; one that lands after the
			// deadline has passed is the next Recv's.
			if p := c.take(); p != nil {
				return p, nil
			}
			if !c.armFor(dl) {
				return nil, ErrDeadline
			}
		}
		if p := <-c.in; p != nil {
			return p, nil
		}
		// A wake: the pipe closed or the deadline timer fired.
	}
}

// SetRecvDeadline bounds subsequent Recv calls: a Recv still waiting at t
// returns ErrDeadline. The zero time removes the bound. It costs one
// atomic store: the timer that enforces it is armed by a Recv about to
// park, and only when no earlier firing is pending.
func (c *pipeConn) SetRecvDeadline(t time.Time) {
	var dl int64
	if !t.IsZero() {
		// 1 rather than 0 for a deadline at the epoch itself: 0 is none.
		dl = max(int64(t.Sub(epoch)), 1)
	}
	c.deadline.Store(dl)
}

// armFor reports whether the deadline dl is still ahead and, if it is,
// makes sure the timer fires no later than dl. A timer due earlier is left
// alone: a deadline moved forward on every call re-arms it once per
// firing, not once per call, and the receiver it wakes early parks again.
func (c *pipeConn) armFor(dl int64) bool {
	now := int64(time.Since(epoch))
	if now >= dl {
		return false
	}
	if at := c.timerAt.Load(); at != 0 && at <= dl {
		return true
	}
	c.timerAt.Store(dl)
	c.arms++
	if c.timer == nil {
		c.timer = time.AfterFunc(time.Duration(dl-now), c.deadlineFired)
	} else {
		c.timer.Reset(time.Duration(dl - now))
	}
	return true
}

// deadlineFired is the timer's callback: it wakes the receiver, which
// re-checks the clock and re-arms for a deadline still ahead.
func (c *pipeConn) deadlineFired() {
	c.timerAt.Store(0)
	wake(c.in)
}

// Close implements Conn: it closes the pipe in both directions. Each end's
// queue keeps what was sent before, for its receiver to drain.
func (c *pipeConn) Close() error {
	if c.life.closed.CompareAndSwap(false, true) {
		close(c.life.dead)
		wake(c.in)
		wake(c.peer.in)
	}
	c.announce()
	c.peer.announce()
	return nil
}

// tpktConn frames messages over a stream connection with a 4-octet header
// (version, reserved, 16-bit length), following ISO transport over TCP.
type tpktConn struct {
	nc net.Conn

	readMu  sync.Mutex
	writeMu sync.Mutex
	hdr     [4]byte
	// wbuf is the frame being written, header and body, reused across
	// Sends (guarded by writeMu).
	wbuf []byte
}

const (
	tpktVersion   = 3
	tpktMaxLength = 0xffff - 4
)

// NewTPKT wraps a stream connection in TPKT framing.
func NewTPKT(nc net.Conn) Conn { return &tpktConn{nc: nc} }

// Send implements Conn; p is fully written to the socket, in one Write of
// header and body together, before return.
//
//xmovie:noretain p
func (c *tpktConn) Send(p []byte) error {
	if len(p) > tpktMaxLength {
		return fmt.Errorf("transport: message of %d octets exceeds TPKT limit", len(p))
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.wbuf = append(c.wbuf[:0], tpktVersion, 0, 0, 0)
	binary.BigEndian.PutUint16(c.wbuf[2:], uint16(len(p)+4))
	c.wbuf = append(c.wbuf, p...)
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return fmt.Errorf("transport: write: %w", err)
	}
	return nil
}

func (c *tpktConn) Recv() ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if _, err := io.ReadFull(c.nc, c.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	if c.hdr[0] != tpktVersion {
		return nil, fmt.Errorf("transport: bad TPKT version %d", c.hdr[0])
	}
	n := int(binary.BigEndian.Uint16(c.hdr[2:]))
	if n < 4 {
		return nil, fmt.Errorf("transport: bad TPKT length %d", n)
	}
	body := make([]byte, n-4)
	if _, err := io.ReadFull(c.nc, body); err != nil {
		return nil, fmt.Errorf("transport: read body: %w", err)
	}
	return body, nil
}

func (c *tpktConn) Close() error { return c.nc.Close() }

// Listener accepts TPKT transport connections.
type Listener struct {
	nl net.Listener
}

// Listen starts a TPKT listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return &Listener{nl: nl}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return NewTPKT(nc), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.nl.Close() }

// Dial opens a TPKT transport connection to addr.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return NewTPKT(nc), nil
}
