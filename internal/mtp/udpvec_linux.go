//go:build linux && (amd64 || arm64)

package mtp

import (
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr for sendmmsg(2).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// maxMmsg bounds one sendmmsg call; the stream sender's coalescing window
// is smaller, so a larger batch only comes from other callers.
const maxMmsg = 64

// udpTx is one sendmmsg call in the making: message i gathers iovs[2i]
// (header) and iovs[2i+1] (payload). write is the bound poller callback; n,
// sent and errno are its arguments and results.
type udpTx struct {
	msgs  [maxMmsg]mmsghdr
	iovs  [2 * maxMmsg]syscall.Iovec
	write func(fd uintptr) bool
	n     int
	sent  int
	errno syscall.Errno
}

func (u *UDPConn) initTx() {
	for i := range u.tx.msgs {
		u.tx.msgs[i].hdr.Iov = &u.tx.iovs[2*i]
	}
	u.tx.write = u.sendmmsg
}

// SendBatch implements StreamConn: each packet leaves as one datagram,
// gathered by the kernel from its header and payload slices, and the batch
// takes one sendmmsg(2) call per maxMmsg packets. Every slice is consumed
// before the call returns.
//
//xmovie:noretain pkts
//xmovie:hotpath
func (u *UDPConn) SendBatch(pkts []PacketVec) error {
	for len(pkts) > 0 {
		n := min(len(pkts), maxMmsg)
		for i, p := range pkts[:n] {
			u.tx.iovs[2*i] = iovec(p.Hdr)
			u.tx.iovs[2*i+1] = iovec(p.Payload)
			u.tx.msgs[i].hdr.Iovlen = 2
			if len(p.Payload) == 0 {
				u.tx.msgs[i].hdr.Iovlen = 1
			}
		}
		u.tx.n, u.tx.sent, u.tx.errno = n, 0, 0
		if err := u.rc.Write(u.tx.write); err != nil {
			return err
		}
		if u.tx.errno != 0 {
			return u.tx.errno
		}
		pkts = pkts[n:]
	}
	return nil
}

// sendmmsg is the poller's write callback: it sends what is left of the
// batch, retrying on EINTR and for messages the kernel did not take in one
// go. On EAGAIN it returns false, and the poller calls again once the
// socket is writable.
func (u *UDPConn) sendmmsg(fd uintptr) bool {
	t := &u.tx
	for t.sent < t.n {
		r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&t.msgs[t.sent])), uintptr(t.n-t.sent), 0, 0, 0)
		switch errno {
		case 0:
			t.sent += int(r)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			t.errno = errno
			return true
		}
	}
	return true
}

func iovec(b []byte) syscall.Iovec {
	var v syscall.Iovec
	if len(b) > 0 {
		v.Base = &b[0]
		v.SetLen(len(b))
	}
	return v
}
