//go:build !unix

package mtp

import "time"

// udpRx is empty: TryRecv needs no callback here.
type udpRx struct{}

func (u *UDPConn) initRx() {}

// TryRecv implements StreamConn. With no non-blocking read on this
// platform it approximates one with a one-millisecond read deadline.
// Buffered datagrams return immediately; an empty socket costs at most the
// deadline, which only slightly loosens pacing — crucially, credit-based
// adaptation keeps working, it never silently starves. (An already-expired
// deadline would not do: Go fails such reads even when data is queued.)
// The result aliases the conn's receive buffer.
func (u *UDPConn) TryRecv() ([]byte, bool) {
	if err := u.c.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
		return nil, false
	}
	n, err := u.c.Read(u.buf)
	_ = u.c.SetReadDeadline(time.Time{})
	if err != nil || n == 0 {
		return nil, false
	}
	return u.buf[:n], true
}
