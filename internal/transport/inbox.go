package transport

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDeadline is returned by Recv when the receive deadline passes before a
// message arrives. The connection stays usable; a message arriving later is
// delivered by the next Recv.
var ErrDeadline = errors.New("transport: receive deadline exceeded")

// defaultCapacity bounds an inbox's queue when no capacity is given: a
// Pipe(0) end, and a conn adopted by ConnProviderDef's module.
const defaultCapacity = 1024

// DeadlineConn is a Conn with a revocable receive deadline. A Recv that
// times out loses nothing — only the wait is bounded; the next Recv
// delivers the message that arrives later.
type DeadlineConn interface {
	Conn
	// SetRecvDeadline bounds subsequent Recv calls: a Recv still waiting
	// at t returns ErrDeadline. The zero time removes the bound.
	SetRecvDeadline(t time.Time)
}

// NewDeadlineConn returns conn with a receive deadline: a pipe end as it
// is, any other conn adopted into an inbox of its own (see withInbox) that
// holds one message. With one more in the reader's hand, an adopted conn
// holds at most two; beyond that its peer backs up in the socket. The
// result owns conn's read side: do not call conn's Recv directly
// afterwards, and do not overlap Recv calls.
func NewDeadlineConn(conn Conn) DeadlineConn {
	d, _ := withInbox(conn, 1)
	return d
}

// inbox is the receive half of a connection, and the package's only
// receive path. Its queue is a channel bounded by its capacity, read either
// by Recv or, once a receiver hook is installed (setReceiver), by tryRecv
// on the goroutine the hook wakes: then no goroutine waits on the queue.
//
// A receiver parked in Recv waits on the queue alone. Whatever else must
// wake it — a close, the receive deadline's timer — arrives in-band as a
// nil entry (a message is never nil), after the state it announces is set:
// the woken receiver skips the nil and looks again. A wake that finds the
// queue full is dropped, since then the receiver is not parked and looks
// at that state once it has drained a message.
//
// Once closed, the inbox delivers what was queued, then its terminal error
// to every later receive.
type inbox struct {
	q chan []byte
	// life is the connection's close state; a pipe's two ends share one.
	life *pipeLife

	// onRecv is the receiver hook (nil until installed): called on the
	// writer's goroutine after each message lands in the queue, and when
	// the inbox closes.
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

	// err is the terminal error (nil means io.EOF). It is written before
	// life.closed is set, and read only after closed was seen.
	err error
	// ended is set by the receiver once it has returned the terminal
	// error: a message that lands after that is never delivered.
	ended bool
}

// pipeLife is a connection's close state.
type pipeLife struct {
	closed atomic.Bool
	// dead closes with the first close, releasing writers blocked on a
	// full queue.
	dead chan struct{}
}

// epoch is the origin of inbox deadlines: durations since it read the
// monotonic clock.
var epoch = time.Now()

// init makes ib an open inbox of the given capacity under life.
func (ib *inbox) init(capacity int, life *pipeLife) {
	ib.q = make(chan []byte, capacity)
	ib.life = life
}

func newLife() *pipeLife { return &pipeLife{dead: make(chan struct{})} }

// put queues p, which the inbox owns from now on, and calls the receiver
// hook. On a full queue it waits for room or a close. The caller checks
// life.closed first: with room in the queue, the select below could still
// pick the send after a close.
func (ib *inbox) put(p []byte) error {
	select {
	case ib.q <- p:
	default:
		// Full: wait for room or a close.
		select {
		case ib.q <- p:
		case <-ib.life.dead:
			return ErrClosed
		}
	}
	ib.announce()
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
func (ib *inbox) announce() {
	if fn := ib.onRecv.Load(); fn != nil {
		(*fn)()
	}
}

// setReceiver installs fn as the receiver hook. What was queued before,
// and a close that already happened, fn never hears of: the installer takes
// them with tryRecv right after installing (a writer that read no hook had
// queued its message by then).
func (ib *inbox) setReceiver(fn func()) { ib.onRecv.Store(&fn) }

// take returns the next queued message without blocking, skipping wakes;
// nil when nothing is queued.
func (ib *inbox) take() []byte {
	for {
		select {
		case p := <-ib.q:
			if p != nil {
				return p
			}
		default:
			return nil
		}
	}
}

// tryRecv takes the next queued message without blocking. It returns nil,
// nil when nothing is queued, and the terminal error once the inbox is
// closed and drained.
func (ib *inbox) tryRecv() ([]byte, error) {
	if !ib.ended {
		if p := ib.take(); p != nil {
			return p, nil
		}
		if !ib.life.closed.Load() {
			return nil, nil
		}
	}
	return ib.drained()
}

// drained is the receive of a closed inbox: what was queued before the
// close, then the terminal error. It looks at the queue after the close
// was seen, so a message queued before the close cannot slip past it.
func (ib *inbox) drained() ([]byte, error) {
	if !ib.ended {
		if p := ib.take(); p != nil {
			return p, nil
		}
		ib.ended = true
	}
	if ib.err != nil {
		return nil, ib.err
	}
	return nil, io.EOF
}

// Recv implements Conn. Messages queued before a close come first, then
// the terminal error. Under a receive deadline (SetRecvDeadline) a Recv
// still waiting at the deadline returns ErrDeadline, and the next Recv
// delivers whatever arrives later.
func (ib *inbox) Recv() ([]byte, error) {
	for {
		if ib.life.closed.Load() {
			return ib.drained()
		}
		if dl := ib.deadline.Load(); dl != 0 {
			// A queued message needs no timer; one that lands after the
			// deadline has passed is the next Recv's.
			if p := ib.take(); p != nil {
				return p, nil
			}
			if !ib.armFor(dl) {
				return nil, ErrDeadline
			}
		}
		if p := <-ib.q; p != nil {
			return p, nil
		}
		// A wake: the inbox closed or the deadline timer fired.
	}
}

// SetRecvDeadline bounds subsequent Recv calls: a Recv still waiting at t
// returns ErrDeadline. The zero time removes the bound. It costs one
// atomic store: the timer that enforces it is armed by a Recv about to
// park, and only when no earlier firing is pending.
func (ib *inbox) SetRecvDeadline(t time.Time) {
	var dl int64
	if !t.IsZero() {
		// 1 rather than 0 for a deadline at the epoch itself: 0 is none.
		dl = max(int64(t.Sub(epoch)), 1)
	}
	ib.deadline.Store(dl)
}

// armFor reports whether the deadline dl is still ahead and, if it is,
// makes sure the timer fires no later than dl. A timer due earlier is left
// alone: a deadline moved forward on every call re-arms it once per
// firing, not once per call, and the receiver it wakes early parks again.
func (ib *inbox) armFor(dl int64) bool {
	now := int64(time.Since(epoch))
	if now >= dl {
		return false
	}
	if at := ib.timerAt.Load(); at != 0 && at <= dl {
		return true
	}
	ib.timerAt.Store(dl)
	ib.arms++
	if ib.timer == nil {
		ib.timer = time.AfterFunc(time.Duration(dl-now), ib.deadlineFired)
	} else {
		ib.timer.Reset(time.Duration(dl - now))
	}
	return true
}

// deadlineFired is the timer's callback: it wakes the receiver, which
// re-checks the clock and re-arms for a deadline still ahead.
func (ib *inbox) deadlineFired() {
	ib.timerAt.Store(0)
	wake(ib.q)
}

// adoptedConn gives a conn without an inbox one. A single reader goroutine
// blocks in the inner Recv and puts each message into the inbox, as a
// pipe's Send does but without a copy: a Recv result is already owned.
// When the inbox is full the reader waits, and with it the peer.
type adoptedConn struct {
	inbox
	inner    Conn
	failOnce sync.Once
}

// withInbox returns conn with its receive side as an inbox, and that
// inbox: a pipe end as it is, any other conn adopted into an inbox of the
// given capacity (at least 1: a wake needs room in the queue), its reader
// started.
func withInbox(conn Conn, capacity int) (DeadlineConn, *inbox) {
	if p, ok := conn.(*pipeConn); ok {
		return p, &p.inbox
	}
	a := &adoptedConn{inner: conn}
	a.init(capacity, newLife())
	go a.read()
	return a, &a.inbox
}

// read is the adopted conn's reader: it runs until the inner Recv fails or
// the inbox closes.
func (a *adoptedConn) read() {
	for {
		p, err := a.inner.Recv()
		if err != nil {
			a.fail(err)
			return
		}
		if a.life.closed.Load() || a.put(p) != nil {
			return
		}
	}
}

// fail closes the inbox with err as its terminal error (the first wins),
// releasing a reader blocked on a full queue and waking the receiver.
func (a *adoptedConn) fail(err error) {
	a.failOnce.Do(func() {
		a.err = err
		a.life.closed.Store(true)
		close(a.life.dead)
		wake(a.q)
		a.announce()
	})
}

// Send implements Conn.
//
//xmovie:noretain p
func (a *adoptedConn) Send(p []byte) error { return a.inner.Send(p) }

// Close implements Conn: the inbox closes, as a pipe end does, so a Recv
// drains what was queued and then returns io.EOF; the inner conn closes,
// which ends the reader.
func (a *adoptedConn) Close() error {
	a.fail(io.EOF)
	return a.inner.Close()
}
