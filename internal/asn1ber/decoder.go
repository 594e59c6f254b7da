package asn1ber

import "fmt"

// Decoder is the walk the typed PDU decoders make over one encoded PDU —
// the decoding half of the Append primitives. It reads elements in place
// through Spans (offsets into the PDU), so a decoder descends into
// constructed content without copying or building intermediate values.
//
// Its acceptance rules are the schema codec's (Type.Decode): an element
// matches on class and tag, the constructed bit ignored; a Mandatory
// element that is missing or carries another tag is an error, an Optional
// one is then skipped; Done refuses trailing octets; integers are 1 to 8
// octets.
//
// The first error sticks: after it every call returns a zero value, so a
// decoder reads a PDU's fields straight through and checks Err once.
type Decoder struct {
	data []byte
	str  string // string(data), made at the first non-empty String
	err  error
}

// Span is the undecoded part of one element's content, or of the whole
// PDU, as offsets into the Decoder's data.
type Span struct{ off, end int }

// More reports whether s has undecoded octets.
func (s Span) More() bool { return s.off < s.end }

// Presence says whether a SEQUENCE component may be absent.
type Presence bool

// The two presences of a SEQUENCE component.
const (
	Mandatory Presence = false
	Optional  Presence = true
)

// NewDecoder returns a Decoder over data.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

// All returns the Span of the whole of the Decoder's data.
func (d *Decoder) All() Span { return Span{0, len(d.data)} }

// Err returns the first error the Decoder met, or nil.
func (d *Decoder) Err() error { return d.err }

// Next consumes the next element of s, whatever its tag, and returns its
// header and the Span of its content.
func (d *Decoder) Next(s *Span) (Header, Span) {
	if d.err != nil {
		return Header{}, Span{}
	}
	h, err := ParseHeader(d.data[s.off:s.end])
	if err != nil {
		d.err = err
		return Header{}, Span{}
	}
	c := Span{s.off + h.HeaderLen, s.off + h.HeaderLen + h.Length}
	s.off = c.end
	return h, c
}

// Element consumes the next element of s if it carries class and tag, and
// returns the Span of its content. An element that is absent — s is used
// up, or its next element carries another tag — leaves s as it was and
// returns false; that is an error when p is Mandatory.
func (d *Decoder) Element(s *Span, class Class, tag uint32, p Presence) (Span, bool) {
	if d.err != nil {
		return Span{}, false
	}
	if !s.More() {
		if p == Mandatory {
			d.err = fmt.Errorf("%w: missing %s %d", ErrBadValue, class, tag)
		}
		return Span{}, false
	}
	hclass, htag, c := d.peek(*s)
	if d.err != nil {
		return Span{}, false
	}
	if hclass != class || htag != tag {
		if p == Mandatory {
			d.err = fmt.Errorf("%w: got %s %d, want %s %d", ErrBadValue, hclass, htag, class, tag)
		}
		return Span{}, false
	}
	s.off = c.end
	return c, true
}

// peek parses the header of the next element of s and returns its class,
// tag and content, recording an error if the header is malformed: Next
// without the Header, for the per-element paths (see parseHeader).
func (d *Decoder) peek(s Span) (Class, uint32, Span) {
	class, _, tag, length, headerLen, err := parseHeader(d.data[s.off:s.end])
	if err != nil {
		d.err = err
		return 0, 0, Span{}
	}
	return class, tag, Span{s.off + headerLen, s.off + headerLen + length}
}

// Integer decodes an INTEGER or ENUMERATED element (or an implicitly
// retagged one); an absent Optional one is 0.
func (d *Decoder) Integer(s *Span, class Class, tag uint32, p Presence) int64 {
	c, ok := d.Element(s, class, tag, p)
	if !ok {
		return 0
	}
	v, err := ParseIntegerContent(d.data[c.off:c.end])
	if err != nil {
		d.err = err
	}
	return v
}

// Bool decodes a BOOLEAN element; an absent Optional one is false.
func (d *Decoder) Bool(s *Span, class Class, tag uint32, p Presence) bool {
	c, ok := d.Element(s, class, tag, p)
	if !ok {
		return false
	}
	v, err := ParseBoolContent(d.data[c.off:c.end])
	if err != nil {
		d.err = err
	}
	return v
}

// String decodes a character-string element as a substring of one string
// conversion of the Decoder's data, made at the first non-empty String:
// the result does not alias data. An absent Optional one is "".
func (d *Decoder) String(s *Span, class Class, tag uint32, p Presence) string {
	c, ok := d.Element(s, class, tag, p)
	if !ok || !c.More() {
		return ""
	}
	if d.str == "" {
		d.str = string(d.data)
	}
	return d.str[c.off:c.end]
}

// Bytes decodes an OCTET STRING element (or an implicitly retagged one).
// The result aliases the Decoder's data, capped at its own length so an
// append cannot overwrite what follows. An absent Optional one is nil; a
// present empty one is empty but not nil.
func (d *Decoder) Bytes(s *Span, class Class, tag uint32, p Presence) []byte {
	c, ok := d.Element(s, class, tag, p)
	if !ok {
		return nil
	}
	return d.data[c.off:c.end:c.end]
}

// Count returns how many elements s holds without consuming them: the
// sizing pass before a SEQUENCE OF is decoded into a slice, whose decoding
// then checks each element's tag. After an error it returns 0.
func (d *Decoder) Count(s Span) int {
	n := 0
	for ; s.More() && d.err == nil; n++ {
		_, _, c := d.peek(s)
		s.off = c.end
	}
	if d.err != nil {
		return 0
	}
	return n
}

// Done records an error if s has undecoded octets: neither a SEQUENCE nor
// a PDU may carry trailing octets.
func (d *Decoder) Done(s Span) {
	if d.err == nil && s.More() {
		d.err = fmt.Errorf("%w: %d trailing octets", ErrBadValue, s.end-s.off)
	}
}
