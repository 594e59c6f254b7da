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

// pipeConn is one end of an in-memory connection: its inbox is the end's
// receive half, and its Send puts into the peer's.
type pipeConn struct {
	inbox
	peer *pipeConn
}

// Pipe returns two connected in-memory transport endpoints with queue
// capacity cap (0 means 1024).
func Pipe(capacity int) (Conn, Conn) {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	life := newLife()
	a, b := &pipeConn{}, &pipeConn{}
	a.init(capacity, life)
	b.init(capacity, life)
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn; p is copied before it crosses into the peer's
// inbox.
//
//xmovie:noretain p
func (c *pipeConn) Send(p []byte) error {
	if c.life.closed.Load() {
		return ErrClosed
	}
	buf := make([]byte, len(p))
	copy(buf, p)
	return c.peer.put(buf)
}

// Close implements Conn: it closes the pipe in both directions. Each end's
// queue keeps what was sent before, for its receiver to drain.
func (c *pipeConn) Close() error {
	if c.life.closed.CompareAndSwap(false, true) {
		close(c.life.dead)
		wake(c.q)
		wake(c.peer.q)
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
		if err == io.EOF {
			// A header without its body is a truncated frame, not a
			// clean end.
			err = io.ErrUnexpectedEOF
		}
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
