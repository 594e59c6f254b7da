//go:build !linux || !(amd64 || arm64)

package mtp

// udpTx is the buffer SendBatch gathers each packet into.
type udpTx struct {
	buf []byte
}

func (u *UDPConn) initTx() {}

// SendBatch implements StreamConn where sendmmsg is unavailable: each
// packet's header and payload are copied into one conn-owned buffer and
// written as one datagram. Every slice is consumed before the call returns.
//
//xmovie:noretain pkts
//xmovie:hotpath
func (u *UDPConn) SendBatch(pkts []PacketVec) error {
	for _, p := range pkts {
		u.tx.buf = append(append(u.tx.buf[:0], p.Hdr...), p.Payload...)
		if _, err := u.c.Write(u.tx.buf); err != nil {
			return err
		}
		copySends.Add(1)
	}
	return nil
}
