//go:build unix

package mtp

import "syscall"

// udpRx holds TryRecv's bound poller callback and its result.
type udpRx struct {
	read func(fd uintptr) bool
	n    int
}

func (u *UDPConn) initRx() { u.rx.read = u.readNow }

// TryRecv implements StreamConn: one datagram read that never waits, so a
// stream sender polls for receiver feedback without a reader goroutine.
// The result aliases the conn's receive buffer.
//
//xmovie:hotpath
func (u *UDPConn) TryRecv() ([]byte, bool) {
	u.rx.n = 0
	if err := u.rc.Read(u.rx.read); err != nil || u.rx.n <= 0 {
		return nil, false
	}
	return u.buf[:u.rx.n], true
}

// readNow is the poller's read callback. The runtime keeps every socket in
// non-blocking mode, so on an empty socket read(2) fails with EAGAIN at
// once; returning true tells the poller not to wait for data either way.
// (A read deadline cannot do this: an expired one fails the read even when
// a datagram is queued.)
func (u *UDPConn) readNow(fd uintptr) bool {
	n, err := syscall.Read(int(fd), u.buf)
	if err != nil {
		n = 0
	}
	u.rx.n = n
	return true
}
