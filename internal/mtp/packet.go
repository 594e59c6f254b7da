// Package mtp implements the XMovie Movie Transmission Protocol — the
// continuous-media stream protocol of the paper's data plane.
//
// MCAM deliberately separates the control protocol (reliable, low rate,
// OSI stack) from the CM-stream protocol (isochronous, high rate, light
// error handling, run over UDP/IP/FDDI in the paper; over a UDP socket or a
// simulated network path here). MTP provides sequence numbering, media
// timestamps, sender-side pacing, and receiver-side reordering, loss
// accounting and jitter measurement — but no retransmission: late video is
// worse than lost video (paper Table 1: "lightweight or none").
//
// mtp paces frames and must wait on internal/timewheel, never on runtime
// timers — see the timerdiscipline analyzer.
//
//xmovie:pacing-package
package mtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Packet layout constants.
const (
	// HeaderSize is the fixed MTP header length in octets.
	HeaderSize = 20
	// Magic identifies MTP packets.
	Magic uint16 = 0x4d54 // "MT"
	// Version is the protocol version carried in every packet.
	Version byte = 1
	// MaxPayload bounds one packet's payload (UDP-safe).
	MaxPayload = 60000
)

// Header flags.
const (
	// FlagEOS marks the end of the stream.
	FlagEOS byte = 1 << 0
	// FlagKey marks an independently decodable frame.
	FlagKey byte = 1 << 1
	// FlagFB marks a receiver→sender feedback packet; the payload is a
	// Feedback report (see stream.go), never media data.
	FlagFB byte = 1 << 2
	// FlagSync marks a deliberate sequence discontinuity: the receiver
	// resynchronizes its expected sequence number to this packet instead
	// of counting the gap as loss. Senders set it on the first frame of a
	// stream that does not start at sequence 0 and on the first frame
	// after a seek.
	FlagSync byte = 1 << 3
	// FlagSkip marks the gap before this packet as sender-intentional:
	// the preceding sequence numbers were consumed by adaptive frame
	// dropping and will never be sent. The receiver accounts them as lost
	// immediately instead of waiting for the reorder window to give up.
	FlagSkip byte = 1 << 4
)

// Packet is one MTP datagram.
type Packet struct {
	Flags    byte
	StreamID uint32
	// Seq numbers packets consecutively from 0 within a stream.
	Seq uint32
	// TSMicro is the media timestamp in microseconds since stream start.
	TSMicro uint64
	Payload []byte
}

// ErrBadPacket reports an undecodable datagram.
var ErrBadPacket = errors.New("mtp: malformed packet")

// Marshal appends the wire encoding to dst, copying the payload. The
// zero-copy alternative is MarshalHeader + a StreamConn send, which hands
// the payload slice to the conn without this copy.
//
//xmovie:hotpath
func (p *Packet) Marshal(dst []byte) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		//xmovie:allow-alloc oversize payload is a caller bug, not the steady state
		return nil, fmt.Errorf("mtp: payload of %d octets exceeds maximum", len(p.Payload))
	}
	dst = p.appendHeader(dst)
	return append(dst, p.Payload...), nil
}

// MarshalHeader appends only the 20-octet wire header to dst — the
// zero-copy send form: the header goes into a small caller buffer while the
// payload slice (typically aliasing a ChunkCache chunk or a live-window
// ring frame) is passed to SendBatch untouched.
//
//xmovie:hotpath
func (p *Packet) MarshalHeader(dst []byte) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		//xmovie:allow-alloc oversize payload is a caller bug, not the steady state
		return nil, fmt.Errorf("mtp: payload of %d octets exceeds maximum", len(p.Payload))
	}
	return p.appendHeader(dst), nil
}

//xmovie:hotpath
func (p *Packet) appendHeader(dst []byte) []byte {
	var h [HeaderSize]byte
	binary.BigEndian.PutUint16(h[0:], Magic)
	h[2] = Version
	h[3] = p.Flags
	binary.BigEndian.PutUint32(h[4:], p.StreamID)
	binary.BigEndian.PutUint32(h[8:], p.Seq)
	binary.BigEndian.PutUint64(h[12:], p.TSMicro)
	return append(dst, h[:]...)
}

// Unmarshal decodes a datagram into p, overwriting it. The payload aliases
// data. The allocation-free form of the package-level Unmarshal.
//
//xmovie:hotpath
func (p *Packet) Unmarshal(data []byte) error {
	if len(data) < HeaderSize {
		//xmovie:allow-alloc malformed datagrams are off the steady-state path
		return fmt.Errorf("%w: %d octets", ErrBadPacket, len(data))
	}
	if binary.BigEndian.Uint16(data[0:]) != Magic {
		//xmovie:allow-alloc malformed datagrams are off the steady-state path
		return fmt.Errorf("%w: bad magic", ErrBadPacket)
	}
	if data[2] != Version {
		//xmovie:allow-alloc malformed datagrams are off the steady-state path
		return fmt.Errorf("%w: version %d", ErrBadPacket, data[2])
	}
	p.Flags = data[3]
	p.StreamID = binary.BigEndian.Uint32(data[4:])
	p.Seq = binary.BigEndian.Uint32(data[8:])
	p.TSMicro = binary.BigEndian.Uint64(data[12:])
	p.Payload = data[HeaderSize:]
	return nil
}

// Unmarshal decodes a datagram. The payload aliases data.
func Unmarshal(data []byte) (*Packet, error) {
	p := new(Packet)
	if err := p.Unmarshal(data); err != nil {
		return nil, err
	}
	return p, nil
}

// PacketConn is the datagram substrate a Receiver reads from: a netsim
// endpoint, a UDP socket, or anything message-oriented and unreliable.
//
// Send must not retain p after it returns (receivers reuse one feedback
// marshal buffer across reports); Recv's result is only guaranteed valid
// until the next Recv call on the same conn (receivers may reuse one
// receive buffer).
type PacketConn interface {
	Send(p []byte) error
	Recv() ([]byte, error)
}

// PacketVec is one packet of a send: the marshalled MTP header and the
// frame payload (empty for an EOS marker) as separate slices, one datagram
// on the wire. It aliases an unnamed struct type so that conns in packages
// mtp's tests import (netsim) can implement StreamConn without importing
// mtp.
type PacketVec = struct{ Hdr, Payload []byte }

// StreamConn is the conn a StreamSender transmits over: the netsim endpoint
// and the connected UDP conn implement it.
//
// SendBatch sends each packet as one datagram, in order, with one call —
// one sendmmsg(2) on the Linux UDP path — so a coalesced batch costs one
// syscall, not one per frame. It is the zero-copy send: the payloads
// typically alias a moviedb chunk-cache chunk or live-window ring frame
// that was never copied since it left storage. Every slice is valid only
// for the duration of the call: SendBatch must consume it (hand it to the
// kernel or copy it into a buffer the conn owns) before returning, must
// never write into it and must not use it afterwards. The sender reuses its
// header arena and the storage layer may recycle a chunk the moment
// SendBatch returns.
//
// TryRecv is a non-blocking receive, polled for receiver feedback before
// each departure so that no reader goroutine is needed. Its result obeys
// PacketConn's Recv lifetime rule; a conn that cannot tell returns false.
type StreamConn interface {
	SendBatch(pkts []PacketVec) error
	TryRecv() ([]byte, bool)
}
