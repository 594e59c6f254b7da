package mtp

import (
	"fmt"
	"testing"

	"xmovie/internal/moviedb"
)

// sinkConn discards every packet and never has feedback: the null
// transmit path.
type sinkConn struct{}

func (sinkConn) SendBatch([]PacketVec) error { return nil }
func (sinkConn) TryRecv() ([]byte, bool)     { return nil, false }

// replayConn replays a pre-encoded packet sequence: the null receive path.
type replayConn struct {
	pkts [][]byte
	i    int
}

func (c *replayConn) Send([]byte) error { return nil }
func (c *replayConn) Recv() ([]byte, error) {
	p := c.pkts[c.i]
	c.i++
	return p, nil
}

const (
	benchFrames    = 64
	benchFrameSize = 4096
)

func benchFrameSet() [][]byte {
	frames := make([][]byte, benchFrames)
	for i := range frames {
		f := make([]byte, benchFrameSize)
		for j := range f {
			f[j] = byte(i + j)
		}
		frames[i] = f
	}
	return frames
}

// sendAll transmits frames unpaced over conn with a fresh StreamSender.
func sendAll(conn StreamConn, src moviedb.FrameSource) (StreamStats, error) {
	if err := src.SeekTo(0); err != nil {
		return StreamStats{}, err
	}
	return NewStreamSender(conn, StreamConfig{StreamID: 1}).Run(src)
}

// BenchmarkMTPStream measures the data-plane packet paths: transmitting a
// 64-frame stream into a null conn, and receiving a pre-encoded stream
// (in order, no loss) through the reorder machinery.
func BenchmarkMTPStream(b *testing.B) {
	frames := benchFrameSet()
	b.Run("send", func(b *testing.B) {
		src := moviedb.SliceContent(frames).Open()
		b.ReportAllocs()
		b.SetBytes(benchFrames * benchFrameSize)
		for i := 0; i < b.N; i++ {
			if _, err := sendAll(sinkConn{}, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recv", func(b *testing.B) {
		pkts := make([][]byte, 0, benchFrames+1)
		for i, f := range frames {
			p := Packet{StreamID: 1, Seq: uint32(i), TSMicro: uint64(i) * 40000, Payload: f}
			enc, err := p.Marshal(nil)
			if err != nil {
				b.Fatal(err)
			}
			pkts = append(pkts, enc)
		}
		eos := Packet{StreamID: 1, Seq: benchFrames, Flags: FlagEOS}
		encEOS, err := eos.Marshal(nil)
		if err != nil {
			b.Fatal(err)
		}
		pkts = append(pkts, encEOS)
		conn := &replayConn{pkts: pkts}
		b.ReportAllocs()
		b.SetBytes(benchFrames * benchFrameSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conn.i = 0
			st, err := ReceiveStream(conn, ReceiverConfig{}, func(Frame) {})
			if err != nil {
				b.Fatal(err)
			}
			if st.Delivered != benchFrames {
				b.Fatalf("delivered %d, want %d", st.Delivered, benchFrames)
			}
		}
	})
}

// BenchmarkFanOut measures warm-stream fan-out: one resident frame set
// delivered to V viewers per iteration through the zero-copy coalesced
// path. On a real UDP socket the batching collapses V*frames syscalls into
// V*frames/32.
func BenchmarkFanOut(b *testing.B) {
	frames := benchFrameSet()
	for _, viewers := range []int{100, 5000} {
		b.Run(fmt.Sprintf("batch-%d", viewers), func(b *testing.B) {
			src := moviedb.SliceContent(frames).Open()
			b.ReportAllocs()
			b.SetBytes(int64(viewers) * benchFrames * benchFrameSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for v := 0; v < viewers; v++ {
					if st, err := sendAll(sinkConn{}, src); err != nil || st.Sent != benchFrames {
						b.Fatalf("sent %d, err %v", st.Sent, err)
					}
				}
			}
		})
	}
}

// TestStreamPathAllocs is the allocation regression guard for the stream
// hot paths: with the header arena and the copy-free in-order receive
// path, neither direction may allocate per frame — a send only for the
// sender's per-stream setup, a receive only for the per-call reorder map.
func TestStreamPathAllocs(t *testing.T) {
	frames := benchFrameSet()
	src := moviedb.SliceContent(frames).Open()
	if _, err := sendAll(sinkConn{}, src); err != nil {
		t.Fatal(err)
	}
	sendAllocs := testing.AllocsPerRun(50, func() {
		if st, err := sendAll(sinkConn{}, src); err != nil || st.Sent != benchFrames {
			t.Fatalf("sent %d, err %v", st.Sent, err)
		}
	})
	if sendAllocs > 8 {
		t.Fatalf("StreamSender allocates %.1f times per 64-frame stream, want ≤ 8", sendAllocs)
	}

	pkts := make([][]byte, 0, benchFrames+1)
	for i, f := range frames {
		p := Packet{StreamID: 1, Seq: uint32(i), Payload: f}
		enc, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, enc)
	}
	eos := Packet{StreamID: 1, Seq: benchFrames, Flags: FlagEOS}
	encEOS, err := eos.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkts = append(pkts, encEOS)
	conn := &replayConn{pkts: pkts}
	recvAllocs := testing.AllocsPerRun(50, func() {
		conn.i = 0
		st, err := ReceiveStream(conn, ReceiverConfig{}, func(Frame) {})
		if err != nil {
			t.Fatal(err)
		}
		if st.Delivered != benchFrames {
			t.Fatalf("delivered %d, want %d", st.Delivered, benchFrames)
		}
	})
	if recvAllocs > 2 {
		t.Fatalf("ReceiveStream allocates %.1f times per 64-frame stream, want ≤ 2", recvAllocs)
	}
}
