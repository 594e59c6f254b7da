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
type pipeConn struct {
	out  chan<- []byte
	in   <-chan []byte
	peer *pipeConn
	// closeOut signals this end's close to the peer (idempotent).
	closeOut func()
	// closedIn is closed when the peer closes; selfClosed when we do.
	closedIn   <-chan struct{}
	selfClosed <-chan struct{}

	// onRecv is the receiver hook (nil until installed): called on the
	// writer's goroutine after each message lands in this end's queue, and
	// when either end closes.
	onRecv atomic.Pointer[func()]
}

// Pipe returns two connected in-memory transport endpoints with queue
// capacity cap (0 means 1024).
func Pipe(capacity int) (Conn, Conn) {
	if capacity <= 0 {
		capacity = 1024
	}
	ab := make(chan []byte, capacity)
	ba := make(chan []byte, capacity)
	aClosed := make(chan struct{})
	bClosed := make(chan struct{})
	var aOnce, bOnce sync.Once
	a := &pipeConn{
		out: ab, in: ba,
		closeOut: func() { aOnce.Do(func() { close(aClosed) }) },
		closedIn: bClosed,
	}
	b := &pipeConn{
		out: ba, in: ab,
		closeOut: func() { bOnce.Do(func() { close(bClosed) }) },
		closedIn: aClosed,
	}
	a.selfClosed = aClosed
	b.selfClosed = bClosed
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn; p is copied before it crosses the channel.
//
//xmovie:noretain p
func (c *pipeConn) Send(p []byte) error {
	// With room in the queue, the blocking select below could still pick
	// the send after a close.
	if isClosed(c.selfClosed) || isClosed(c.closedIn) {
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
		case <-c.selfClosed:
			return ErrClosed
		case <-c.closedIn:
			return ErrClosed
		}
	}
	c.peer.announce()
	return nil
}

// isClosed reports whether the close signal ch has fired. While ch is open
// the one-case select costs no lock.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
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

// tryRecv takes the next queued message without blocking. It returns nil,
// nil when nothing is queued (a message is never nil), and io.EOF once
// this end is closed, or the peer is closed and the queue drained.
func (c *pipeConn) tryRecv() ([]byte, error) {
	select {
	case p := <-c.in:
		return p, nil
	default:
	}
	if isClosed(c.selfClosed) {
		return nil, io.EOF
	}
	if !isClosed(c.closedIn) {
		return nil, nil
	}
	// The peer closed; a message may have landed after the first look.
	select {
	case p := <-c.in:
		return p, nil
	default:
		return nil, io.EOF
	}
}

func (c *pipeConn) Recv() ([]byte, error) {
	select {
	case p := <-c.in:
		return p, nil
	case <-c.closedIn:
		// Peer closed; drain what is already queued.
		select {
		case p := <-c.in:
			return p, nil
		default:
			return nil, io.EOF
		}
	case <-c.selfClosed:
		return nil, io.EOF
	}
}

func (c *pipeConn) Close() error {
	c.closeOut()
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
}

const (
	tpktVersion   = 3
	tpktMaxLength = 0xffff - 4
)

// NewTPKT wraps a stream connection in TPKT framing.
func NewTPKT(nc net.Conn) Conn { return &tpktConn{nc: nc} }

// Send implements Conn; p is fully written to the socket before return.
//
//xmovie:noretain p
func (c *tpktConn) Send(p []byte) error {
	if len(p) > tpktMaxLength {
		return fmt.Errorf("transport: message of %d octets exceeds TPKT limit", len(p))
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	var hdr [4]byte
	hdr[0] = tpktVersion
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(p)+4))
	if _, err := c.nc.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	if _, err := c.nc.Write(p); err != nil {
		return fmt.Errorf("transport: write body: %w", err)
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
