package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
)

// streamConn is an in-memory net.Conn: reads come from r, writes go to w.
type streamConn struct {
	net.Conn
	r io.Reader
	w bytes.Buffer
}

func (c *streamConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// FuzzTPKTRecv feeds arbitrary bytes to tpktConn.Recv. Recv must never
// panic; it must return every well-formed frame byte-identical, with a
// body allocated to the header's length and no more, and refuse a bad
// version, a length below 4 or a truncated frame with an error that is not
// a clean EOF. A clean EOF comes only at a frame boundary. Then a Send of a
// payload of any length up to tpktMaxLength, built from the input, must
// come back from Recv byte-identical.
func FuzzTPKTRecv(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewTPKT(&streamConn{r: bytes.NewReader(data)})
		rest := data
		for {
			p, err := c.Recv()
			switch {
			case len(rest) == 0:
				if err != io.EOF {
					t.Fatalf("Recv at the end of the input = %x, %v; want EOF", p, err)
				}
			case len(rest) < 4 || rest[0] != tpktVersion || binary.BigEndian.Uint16(rest[2:]) < 4 ||
				int(binary.BigEndian.Uint16(rest[2:])) > len(rest):
				if err == nil || errors.Is(err, io.EOF) {
					t.Fatalf("Recv of the malformed frame %x = %x, %v; want an error", rest, p, err)
				}
			default:
				n := int(binary.BigEndian.Uint16(rest[2:]))
				if err != nil || !bytes.Equal(p, rest[4:n]) {
					t.Fatalf("Recv of frame %x = %x, %v", rest[:n], p, err)
				}
				if cap(p) != n-4 {
					t.Fatalf("a %d-octet body got a buffer of %d", n-4, cap(p))
				}
				rest = rest[n:]
				continue
			}
			break
		}

		if len(data) < 2 {
			return
		}
		n := int(binary.BigEndian.Uint16(data)) % (tpktMaxLength + 1)
		payload := bytes.Repeat(data, n/len(data)+1)[:n]
		loop := &streamConn{}
		loop.r = &loop.w
		c = NewTPKT(loop)
		if err := c.Send(payload); err != nil {
			t.Fatalf("Send of %d octets: %v", n, err)
		}
		if p, err := c.Recv(); err != nil || !bytes.Equal(p, payload) {
			t.Fatalf("round trip of %d octets = %d octets, %v", n, len(p), err)
		}
	})
}
