// Package session implements a kernel-functional-unit ISO session layer
// (ISO 8327 style) as an Estelle module plus a wire codec.
//
// The paper's generated control stack runs MCAM over Estelle
// implementations of the ISO presentation and session layers (sources
// originally from the University of Bern); this package is that session
// layer. Only the kernel functional unit is provided — connect, orderly
// release, data transfer and abort — which is exactly what the paper's
// measurements used ("presentation and session kernel", §5.1).
package session

import (
	"errors"
	"fmt"

	"xmovie/internal/asn1ber"
)

// SPDUType identifies a session PDU. The codes follow ISO 8327 where the
// kernel allows; tokens and activity management are not implemented.
type SPDUType byte

// Kernel SPDU codes.
const (
	SPDUConnect    SPDUType = 13 // CN
	SPDUAccept     SPDUType = 14 // AC
	SPDURefuse     SPDUType = 12 // RF
	SPDUData       SPDUType = 1  // DT
	SPDUFinish     SPDUType = 9  // FN
	SPDUDisconnect SPDUType = 10 // DN
	SPDUAbort      SPDUType = 25 // AB
)

// String returns the two-letter ISO abbreviation.
func (t SPDUType) String() string {
	switch t {
	case SPDUConnect:
		return "CN"
	case SPDUAccept:
		return "AC"
	case SPDURefuse:
		return "RF"
	case SPDUData:
		return "DT"
	case SPDUFinish:
		return "FN"
	case SPDUDisconnect:
		return "DN"
	case SPDUAbort:
		return "AB"
	default:
		return fmt.Sprintf("SPDU(%d)", byte(t))
	}
}

// Parameter identifiers (PI codes).
const (
	PICallingSelector byte = 10
	PICalledSelector  byte = 9
	PIReason          byte = 50
	PIUserData        byte = 193
)

// SPDU is a decoded session PDU: a type code and a flat parameter list.
type SPDU struct {
	Type   SPDUType
	Params []Param
}

// Param is one TLV parameter of an SPDU.
type Param struct {
	PI    byte
	Value []byte
}

// Get returns the value of the first parameter with code pi.
func (s *SPDU) Get(pi byte) ([]byte, bool) {
	for _, p := range s.Params {
		if p.PI == pi {
			return p.Value, true
		}
	}
	return nil, false
}

// UserData returns the PIUserData parameter, or nil.
func (s *SPDU) UserData() []byte {
	v, _ := s.Get(PIUserData)
	return v
}

// With appends a parameter and returns the SPDU for chaining.
func (s *SPDU) With(pi byte, value []byte) *SPDU {
	s.Params = append(s.Params, Param{PI: pi, Value: value})
	return s
}

// ErrBadSPDU reports a malformed session PDU.
var ErrBadSPDU = errors.New("session: malformed SPDU")

// Encode appends the wire form: SI octet, BER length of the parameter
// field, then PI/BER-length/value triples. The parameter field is sized
// up front so everything is written straight into dst — no intermediate
// buffer, no allocation beyond dst's growth.
func (s *SPDU) Encode(dst []byte) []byte {
	plen := 0
	for i := range s.Params {
		n := len(s.Params[i].Value)
		plen += asn1ber.SizeTLV(n)
	}
	dst = append(dst, byte(s.Type))
	dst = asn1ber.AppendLength(dst, plen)
	for i := range s.Params {
		p := &s.Params[i]
		dst = append(dst, p.PI)
		dst = asn1ber.AppendLength(dst, len(p.Value))
		dst = append(dst, p.Value...)
	}
	return dst
}

// parsedSPDU is what Parse allocates: the SPDU with room for its first
// parameters beside it, so that an SPDU carrying at most two (a DT carries
// one, a CN two) is one object.
type parsedSPDU struct {
	s      SPDU
	inline [2]Param
}

// Parse decodes one SPDU occupying the whole of data.
//
// The parameter values alias data (each capped at its own length), so the
// caller must own data and leave it unchanged while the SPDU is in use: both
// stacks parse the buffer transport.Conn.Recv handed over.
func Parse(data []byte) (*SPDU, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: %d octets", ErrBadSPDU, len(data))
	}
	body, rest, err := readLV(data[1:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing octets", ErrBadSPDU, len(rest))
	}
	o := &parsedSPDU{s: SPDU{Type: SPDUType(data[0])}}
	params := o.inline[:0]
	for len(body) > 0 {
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: truncated parameter", ErrBadSPDU)
		}
		pi := body[0]
		val, next, err := readLV(body[1:])
		if err != nil {
			return nil, err
		}
		params = append(params, Param{PI: pi, Value: val[:len(val):len(val)]})
		body = next
	}
	if len(params) > 0 {
		o.s.Params = params
	}
	return &o.s, nil
}

// readLV reads a BER length then that many octets.
func readLV(data []byte) (val, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: missing length", ErrBadSPDU)
	}
	l := data[0]
	off := 1
	n := 0
	switch {
	case l < 0x80:
		n = int(l)
	case l == 0x80:
		return nil, nil, fmt.Errorf("%w: indefinite length", ErrBadSPDU)
	default:
		k := int(l & 0x7f)
		if k > 3 || len(data) < 1+k {
			return nil, nil, fmt.Errorf("%w: bad length", ErrBadSPDU)
		}
		for i := 0; i < k; i++ {
			n = n<<8 | int(data[1+i])
		}
		off += k
	}
	if len(data) < off+n {
		return nil, nil, fmt.Errorf("%w: truncated value", ErrBadSPDU)
	}
	return data[off : off+n], data[off+n:], nil
}
