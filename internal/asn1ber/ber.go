// Package asn1ber implements the ASN.1 subset and BER transfer syntax used by
// the MCAM protocol suite.
//
// The 1994 paper generated C++ encode/decode routines from ASN.1 definitions
// (refs [9], [16]) and measured a parallel encoder variant (ref [12]). This
// package is the Go analogue: low-level BER TLV primitives (Append* to
// encode, Decoder to decode) that the PDU layers' typed codecs are written
// over, a descriptor ("compiled schema") layer driving generic encode/decode
// that their tests keep as the reference, a parser for ASN.1 module text, and
// a parallel encoder used to reproduce the paper's negative result on
// parallel encoding (experiment E7).
//
// Only definite-length BER is produced; both definite-length primitive and
// constructed encodings are accepted. This is sufficient for every PDU in the
// MCAM, session and presentation layers of this repository.
package asn1ber

import (
	"errors"
	"fmt"
)

// Class is a BER tag class.
type Class uint8

// Tag classes. Values match the two class bits of the identifier octet.
const (
	ClassUniversal       Class = 0
	ClassApplication     Class = 1
	ClassContextSpecific Class = 2
	ClassPrivate         Class = 3
)

// String returns the conventional ASN.1 name of the class.
func (c Class) String() string {
	switch c {
	case ClassUniversal:
		return "UNIVERSAL"
	case ClassApplication:
		return "APPLICATION"
	case ClassContextSpecific:
		return "CONTEXT"
	case ClassPrivate:
		return "PRIVATE"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Universal tag numbers used by this subset.
const (
	TagBoolean     uint32 = 1
	TagInteger     uint32 = 2
	TagBitString   uint32 = 3
	TagOctetString uint32 = 4
	TagNull        uint32 = 5
	TagOID         uint32 = 6
	TagEnumerated  uint32 = 10
	TagUTF8String  uint32 = 12
	TagSequence    uint32 = 16
	TagSet         uint32 = 17
	TagIA5String   uint32 = 22
	TagGraphicStr  uint32 = 25
)

// Header is a decoded BER identifier + length.
type Header struct {
	Class       Class
	Constructed bool
	Tag         uint32
	// Length of the content octets.
	Length int
	// HeaderLen is the number of octets the identifier and length occupied.
	HeaderLen int
}

// Errors returned by the decoder.
var (
	ErrTruncated = errors.New("asn1ber: truncated element")
	ErrBadLength = errors.New("asn1ber: invalid length encoding")
	ErrBadValue  = errors.New("asn1ber: invalid value encoding")
)

// AppendHeader appends a BER identifier and definite length for an element
// whose content is length octets long.
func AppendHeader(dst []byte, class Class, constructed bool, tag uint32, length int) []byte {
	b := byte(class) << 6
	if constructed {
		b |= 0x20
	}
	if tag < 31 {
		dst = append(dst, b|byte(tag))
	} else {
		dst = append(dst, b|0x1f)
		// Base-128, big endian, high bit set on all but last.
		var tmp [5]byte
		i := len(tmp)
		t := tag
		for {
			i--
			tmp[i] = byte(t & 0x7f)
			t >>= 7
			if t == 0 {
				break
			}
		}
		for j := i; j < len(tmp)-1; j++ {
			tmp[j] |= 0x80
		}
		dst = append(dst, tmp[i:]...)
	}
	return AppendLength(dst, length)
}

// SizeLength reports how many octets AppendLength(dst, n) writes.
func SizeLength(n int) int {
	switch {
	case n < 0:
		panic("asn1ber: negative length")
	case n < 0x80:
		return 1
	case n <= 0xff:
		return 2
	case n <= 0xffff:
		return 3
	case n <= 0xffffff:
		return 4
	default:
		return 5
	}
}

// SizeTLV reports the total encoded size of an element with a one-octet
// identifier (any tag < 31, or a session-layer PI octet) and contentLen
// content octets — the sizing half of the two-pass append encoders, which
// compute definite lengths before emitting a single byte.
func SizeTLV(contentLen int) int {
	return 1 + SizeLength(contentLen) + contentLen
}

// AppendLength appends a BER definite length.
func AppendLength(dst []byte, n int) []byte {
	switch {
	case n < 0:
		panic("asn1ber: negative length")
	case n < 0x80:
		return append(dst, byte(n))
	case n <= 0xff:
		return append(dst, 0x81, byte(n))
	case n <= 0xffff:
		return append(dst, 0x82, byte(n>>8), byte(n))
	case n <= 0xffffff:
		return append(dst, 0x83, byte(n>>16), byte(n>>8), byte(n))
	default:
		return append(dst, 0x84, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

// AppendTLV appends a complete element with the given content.
func AppendTLV(dst []byte, class Class, constructed bool, tag uint32, content []byte) []byte {
	dst = AppendHeader(dst, class, constructed, tag, len(content))
	return append(dst, content...)
}

// IntegerContentLen reports how many octets the two's-complement content of
// v occupies.
func IntegerContentLen(v int64) int {
	n := 1
	for v > 0x7f || v < -0x80 {
		n++
		v >>= 8
	}
	return n
}

// AppendIntegerContent appends only the two's-complement content octets of v.
func AppendIntegerContent(dst []byte, v int64) []byte {
	n := IntegerContentLen(v)
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// AppendInteger appends an INTEGER (or with tag overridden, ENUMERATED or an
// implicitly tagged integer) element.
func AppendInteger(dst []byte, class Class, tag uint32, v int64) []byte {
	dst = AppendHeader(dst, class, false, tag, IntegerContentLen(v))
	return AppendIntegerContent(dst, v)
}

// AppendBool appends a BOOLEAN element.
func AppendBool(dst []byte, class Class, tag uint32, v bool) []byte {
	dst = AppendHeader(dst, class, false, tag, 1)
	if v {
		return append(dst, 0xff)
	}
	return append(dst, 0x00)
}

// AppendString appends a character-string element (UTF8String, IA5String, …)
// with the supplied tag.
func AppendString(dst []byte, class Class, tag uint32, s string) []byte {
	dst = AppendHeader(dst, class, false, tag, len(s))
	return append(dst, s...)
}

// AppendBytes appends an OCTET STRING (or implicitly retagged) element.
func AppendBytes(dst []byte, class Class, tag uint32, b []byte) []byte {
	dst = AppendHeader(dst, class, false, tag, len(b))
	return append(dst, b...)
}

// AppendNull appends a NULL element.
func AppendNull(dst []byte, class Class, tag uint32) []byte {
	return AppendHeader(dst, class, false, tag, 0)
}

// ParseHeader decodes the identifier and length at the start of data.
func ParseHeader(data []byte) (Header, error) {
	class, constructed, tag, length, headerLen, err := parseHeader(data)
	if err != nil {
		return Header{}, err
	}
	return Header{Class: class, Constructed: constructed, Tag: tag, Length: length, HeaderLen: headerLen}, nil
}

// parseHeader is ParseHeader with the header's fields as separate results.
// A Header has too many fields for the compiler to keep in registers, so
// every Header passed back goes through memory, and a copy of it reloads
// whole words over its byte-wide fields; the Decoder parses a header per
// element and calls this instead.
func parseHeader(data []byte) (class Class, constructed bool, tag uint32, length, headerLen int, err error) {
	if len(data) < 2 {
		return 0, false, 0, 0, 0, ErrTruncated
	}
	b := data[0]
	off := 1
	tag = uint32(b & 0x1f)
	if tag == 0x1f {
		tag = 0
		for {
			if off >= len(data) {
				return 0, false, 0, 0, 0, ErrTruncated
			}
			c := data[off]
			off++
			if tag > 1<<24 {
				return 0, false, 0, 0, 0, fmt.Errorf("%w: tag overflow", ErrBadValue)
			}
			tag = tag<<7 | uint32(c&0x7f)
			if c&0x80 == 0 {
				break
			}
		}
	}
	if off >= len(data) {
		return 0, false, 0, 0, 0, ErrTruncated
	}
	l := data[off]
	off++
	length = int(l)
	switch {
	case l < 0x80:
	case l == 0x80:
		return 0, false, 0, 0, 0, fmt.Errorf("%w: indefinite length unsupported", ErrBadLength)
	default:
		n := int(l & 0x7f)
		if n > 4 {
			return 0, false, 0, 0, 0, fmt.Errorf("%w: length of %d octets", ErrBadLength, n)
		}
		if off+n > len(data) {
			return 0, false, 0, 0, 0, ErrTruncated
		}
		length = 0
		for i := 0; i < n; i++ {
			length = length<<8 | int(data[off+i])
		}
		if length < 0 {
			return 0, false, 0, 0, 0, ErrBadLength
		}
		off += n
	}
	if off+length > len(data) {
		return 0, false, 0, 0, 0, ErrTruncated
	}
	return Class(b >> 6), b&0x20 != 0, tag, length, off, nil
}

// ParseIntegerContent decodes two's-complement content octets.
func ParseIntegerContent(content []byte) (int64, error) {
	if len(content) == 0 {
		return 0, fmt.Errorf("%w: empty integer", ErrBadValue)
	}
	if len(content) > 8 {
		return 0, fmt.Errorf("%w: integer too large", ErrBadValue)
	}
	v := int64(0)
	if content[0]&0x80 != 0 {
		v = -1
	}
	for _, b := range content {
		v = v<<8 | int64(b)
	}
	return v, nil
}

// ParseBoolContent decodes BOOLEAN content octets.
func ParseBoolContent(content []byte) (bool, error) {
	if len(content) != 1 {
		return false, fmt.Errorf("%w: boolean of %d octets", ErrBadValue, len(content))
	}
	return content[0] != 0, nil
}
