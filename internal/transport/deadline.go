package transport

import (
	"errors"
	"sync"
	"time"
)

// ErrDeadline is returned by DeadlineConn.Recv when the receive deadline
// passes before a message arrives. The connection stays usable; a message
// arriving later is delivered by the next Recv.
var ErrDeadline = errors.New("transport: receive deadline exceeded")

// DeadlineConn adds a revocable receive deadline to any Conn. A Recv that
// times out loses nothing — only the wait is bounded; the next Recv
// delivers the message that arrives later.
//
// An in-memory pipe keeps the deadline itself (pipeConn.SetRecvDeadline):
// Recv waits on the pipe's queue with no goroutine or timer of its own in
// between. Any other Conn — TPKT, or a caller's own — has no timeout on
// its Recv, so DeadlineConn moves the blocking read into a single pump
// goroutine and lets Recv wait on the pump's output with a timer.
//
// One DeadlineConn owns the wrapped connection's read side; do not call the
// inner Recv directly afterwards, and do not overlap Recv calls: they share
// one timer. Send passes through. Close tears down the inner connection and
// releases the pump, so an abandoned DeadlineConn does not leak its
// goroutine.
type DeadlineConn struct {
	inner Conn
	// pipe is inner when it is an in-memory pipe; then there is no pump.
	pipe *pipeConn

	msgs chan []byte
	// done closes when the connection reaches a terminal state (inner
	// receive error or local Close); err is latched first.
	done     chan struct{}
	failOnce sync.Once

	mu       sync.Mutex
	deadline time.Time
	err      error
	// timer bounds Recv's wait; created by the first Recv with a deadline
	// and reset by every later one, so a Call pays no timer allocation.
	timer *time.Timer
}

// NewDeadlineConn wraps conn, starting a receive pump unless conn is a
// pipe, which keeps the deadline itself.
func NewDeadlineConn(conn Conn) *DeadlineConn {
	d := &DeadlineConn{inner: conn, done: make(chan struct{})}
	if p, ok := conn.(*pipeConn); ok {
		d.pipe = p
		return d
	}
	d.msgs = make(chan []byte)
	go d.pump()
	return d
}

// fail latches the terminal error (first wins) and releases every waiter.
func (d *DeadlineConn) fail(err error) {
	d.failOnce.Do(func() {
		d.mu.Lock()
		d.err = err
		d.mu.Unlock()
		close(d.done)
	})
}

func (d *DeadlineConn) terminalErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

func (d *DeadlineConn) pump() {
	for {
		p, err := d.inner.Recv()
		if err != nil {
			d.fail(err)
			return
		}
		select {
		case d.msgs <- p:
		case <-d.done:
			return
		}
	}
}

// SetRecvDeadline bounds subsequent Recv calls: a Recv still waiting at the
// deadline returns ErrDeadline. The zero time removes the bound.
func (d *DeadlineConn) SetRecvDeadline(t time.Time) {
	if d.pipe != nil {
		d.pipe.SetRecvDeadline(t)
		return
	}
	d.mu.Lock()
	d.deadline = t
	d.mu.Unlock()
}

// Send implements Conn.
func (d *DeadlineConn) Send(p []byte) error { return d.inner.Send(p) }

// Recv implements Conn, honoring the deadline. Once the connection reaches
// a terminal state, every subsequent Recv returns that error immediately.
func (d *DeadlineConn) Recv() ([]byte, error) {
	if d.pipe != nil {
		return d.recvPipe()
	}
	var timeout <-chan time.Time
	d.mu.Lock()
	if !d.deadline.IsZero() {
		wait := time.Until(d.deadline)
		if d.timer == nil {
			d.timer = time.NewTimer(wait)
		} else {
			d.timer.Reset(wait)
		}
		timeout = d.timer.C
		// Stopped on return; a stopped or reset timer delivers no stale
		// tick to the next Recv.
		defer d.timer.Stop()
	}
	d.mu.Unlock()
	select {
	case p := <-d.msgs:
		return p, nil
	case <-d.done:
		return nil, d.terminalErr()
	case <-timeout:
		return nil, ErrDeadline
	}
}

// recvPipe is Recv on a pipe, which enforces the deadline itself.
func (d *DeadlineConn) recvPipe() ([]byte, error) {
	select {
	case <-d.done:
		return nil, d.terminalErr()
	default:
	}
	p, err := d.pipe.Recv()
	if err == nil || err == ErrDeadline {
		return p, err
	}
	d.fail(err)
	return nil, d.terminalErr()
}

// Close implements Conn: the inner connection is closed and every pending
// or future Recv returns ErrClosed.
func (d *DeadlineConn) Close() error {
	d.fail(ErrClosed)
	return d.inner.Close()
}
