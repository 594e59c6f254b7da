package mtp

import (
	"fmt"
	"net"
	"syscall"
)

// UDPConn adapts a connected UDP socket to PacketConn and StreamConn, the
// configuration the paper uses for MTP ("we run the XMovie transmission
// protocol MTP directly on top of UDP, IP and FDDI", §3). On Linux
// (amd64/arm64) SendBatch is one sendmmsg(2) call per batch; elsewhere it
// gathers each packet into a buffer and writes it. A UDPConn is not safe
// for concurrent use: one stream sender owns it.
//
// The raw socket, the syscall arrays and the callbacks the runtime's poller
// calls back into are built once, in NewUDPConn, so that neither SendBatch
// nor TryRecv allocates per call.
type UDPConn struct {
	c   *net.UDPConn
	rc  syscall.RawConn
	buf []byte
	tx  udpTx // the platform's SendBatch state
	rx  udpRx // the platform's TryRecv state
}

var (
	_ PacketConn = (*UDPConn)(nil)
	_ StreamConn = (*UDPConn)(nil)
)

// NewUDPConn wraps an already connected UDP socket.
func NewUDPConn(c *net.UDPConn) *UDPConn {
	// SyscallConn fails only on a nil or closed socket, on which every
	// later call fails anyway.
	rc, _ := c.SyscallConn()
	u := &UDPConn{c: c, rc: rc, buf: make([]byte, HeaderSize+MaxPayload)}
	u.initTx()
	u.initRx()
	return u
}

// DialUDP opens a connected UDP socket to addr.
func DialUDP(addr string) (*UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	return NewUDPConn(c), nil
}

// ListenUDP binds a UDP socket on addr (use port 0 for ephemeral) and
// returns it unconnected; the first peer to send adopts the session.
func ListenUDP(addr string) (*UDPListener, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	c, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	return &UDPListener{c: c, buf: make([]byte, HeaderSize+MaxPayload)}, nil
}

// Send implements PacketConn.
//
//xmovie:noretain p
func (u *UDPConn) Send(p []byte) error {
	_, err := u.c.Write(p)
	return err
}

// Recv implements PacketConn. The result aliases the conn's receive buffer
// and is valid until the next Recv.
func (u *UDPConn) Recv() ([]byte, error) {
	n, err := u.c.Read(u.buf)
	if err != nil {
		return nil, err
	}
	return u.buf[:n], nil
}

// Close releases the socket.
func (u *UDPConn) Close() error { return u.c.Close() }

// UDPListener receives a stream on a bound socket, replying to the most
// recent sender (sufficient for one stream per port, as MCAM allocates).
type UDPListener struct {
	c    *net.UDPConn
	buf  []byte
	peer *net.UDPAddr
}

var _ PacketConn = (*UDPListener)(nil)

// Addr returns the bound address.
func (u *UDPListener) Addr() string { return u.c.LocalAddr().String() }

// Recv implements PacketConn, learning the peer from inbound traffic. The
// result aliases the conn's receive buffer and is valid until the next Recv.
func (u *UDPListener) Recv() ([]byte, error) {
	n, peer, err := u.c.ReadFromUDP(u.buf)
	if err != nil {
		return nil, err
	}
	u.peer = peer
	return u.buf[:n], nil
}

// Send implements PacketConn toward the learned peer.
//
//xmovie:noretain p
func (u *UDPListener) Send(p []byte) error {
	if u.peer == nil {
		return fmt.Errorf("mtp: no peer learned yet")
	}
	_, err := u.c.WriteToUDP(p, u.peer)
	return err
}

// Close releases the socket.
func (u *UDPListener) Close() error { return u.c.Close() }
