package asn1ber

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestAppendLengthForms(t *testing.T) {
	tests := []struct {
		n    int
		want []byte
	}{
		{0, []byte{0x00}},
		{1, []byte{0x01}},
		{127, []byte{0x7f}},
		{128, []byte{0x81, 0x80}},
		{255, []byte{0x81, 0xff}},
		{256, []byte{0x82, 0x01, 0x00}},
		{65535, []byte{0x82, 0xff, 0xff}},
		{1 << 16, []byte{0x83, 0x01, 0x00, 0x00}},
		{1 << 24, []byte{0x84, 0x01, 0x00, 0x00, 0x00}},
	}
	for _, tt := range tests {
		got := AppendLength(nil, tt.n)
		if !bytes.Equal(got, tt.want) {
			t.Errorf("AppendLength(%d) = %x, want %x", tt.n, got, tt.want)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	tests := []struct {
		class       Class
		constructed bool
		tag         uint32
		length      int
	}{
		{ClassUniversal, false, TagInteger, 1},
		{ClassUniversal, true, TagSequence, 300},
		{ClassContextSpecific, false, 0, 0},
		{ClassContextSpecific, true, 7, 128},
		{ClassApplication, false, 30, 5},
		{ClassApplication, false, 31, 5},   // first long-form tag
		{ClassPrivate, true, 12345, 70000}, // multi-byte tag + length
	}
	for _, tt := range tests {
		buf := AppendHeader(nil, tt.class, tt.constructed, tt.tag, tt.length)
		buf = append(buf, make([]byte, tt.length)...)
		h, err := ParseHeader(buf)
		if err != nil {
			t.Fatalf("ParseHeader(%x): %v", buf[:min(8, len(buf))], err)
		}
		if h.Class != tt.class || h.Constructed != tt.constructed || h.Tag != tt.tag || h.Length != tt.length {
			t.Errorf("round trip %+v -> %+v", tt, h)
		}
	}
}

func TestIntegerRoundTripQuick(t *testing.T) {
	f := func(v int64) bool {
		buf := AppendInteger(nil, ClassUniversal, TagInteger, v)
		d := NewDecoder(buf)
		s := d.All()
		got := d.Integer(&s, ClassUniversal, TagInteger, Mandatory)
		return d.Err() == nil && got == v && !s.More()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntegerMinimalEncoding(t *testing.T) {
	tests := []struct {
		v    int64
		want []byte
	}{
		{0, []byte{0x02, 0x01, 0x00}},
		{127, []byte{0x02, 0x01, 0x7f}},
		{128, []byte{0x02, 0x02, 0x00, 0x80}},
		{-128, []byte{0x02, 0x01, 0x80}},
		{-129, []byte{0x02, 0x02, 0xff, 0x7f}},
		{256, []byte{0x02, 0x02, 0x01, 0x00}},
		{math.MaxInt64, append([]byte{0x02, 0x08, 0x7f}, bytes.Repeat([]byte{0xff}, 7)...)},
		{math.MinInt64, append([]byte{0x02, 0x08, 0x80}, bytes.Repeat([]byte{0x00}, 7)...)},
	}
	for _, tt := range tests {
		got := AppendInteger(nil, ClassUniversal, TagInteger, tt.v)
		if !bytes.Equal(got, tt.want) {
			t.Errorf("AppendInteger(%d) = %x, want %x", tt.v, got, tt.want)
		}
	}
}

func TestParseHeaderErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"one byte", []byte{0x02}},
		{"indefinite", []byte{0x30, 0x80}},
		{"truncated content", []byte{0x04, 0x05, 0x01}},
		{"truncated long length", []byte{0x04, 0x82, 0x01}},
		{"oversize length-of-length", []byte{0x04, 0x85, 1, 2, 3, 4, 5}},
		{"truncated long tag", []byte{0x5f}},
	}
	for _, tt := range tests {
		if _, err := ParseHeader(tt.data); err == nil {
			t.Errorf("%s: ParseHeader accepted %x", tt.name, tt.data)
		}
	}
}

func TestDecoderWalk(t *testing.T) {
	var buf []byte
	buf = AppendInteger(buf, ClassUniversal, TagInteger, 42)
	buf = AppendString(buf, ClassUniversal, TagUTF8String, "movie")
	buf = AppendBool(buf, ClassContextSpecific, 3, true)
	buf = AppendBytes(buf, ClassContextSpecific, 4, []byte{7})
	buf = AppendNull(buf, ClassUniversal, TagNull)

	d := NewDecoder(buf)
	s := d.All()
	if v := d.Integer(&s, ClassUniversal, TagInteger, Mandatory); v != 42 {
		t.Fatalf("integer: %v %v", v, d.Err())
	}
	if v := d.String(&s, ClassUniversal, TagUTF8String, Mandatory); v != "movie" {
		t.Fatalf("string: %q %v", v, d.Err())
	}
	if v := d.Integer(&s, ClassContextSpecific, 2, Optional); v != 0 || d.Err() != nil {
		t.Fatalf("absent optional integer: %v %v", v, d.Err())
	}
	if v := d.Bool(&s, ClassContextSpecific, 3, Mandatory); !v {
		t.Fatalf("bool: %v %v", v, d.Err())
	}
	if v := d.Bytes(&s, ClassContextSpecific, 4, Optional); len(v) != 1 || v[0] != 7 || cap(v) != 1 {
		t.Fatalf("bytes: %x (cap %d) %v", v, cap(v), d.Err())
	}
	if _, ok := d.Element(&s, ClassUniversal, TagNull, Mandatory); !ok {
		t.Fatalf("null: %v", d.Err())
	}
	d.Done(s)
	if err := d.Err(); err != nil || s.More() {
		t.Fatalf("decoder has leftover data: %v", err)
	}
}

func TestDecoderExpectMismatch(t *testing.T) {
	buf := AppendInteger(nil, ClassUniversal, TagInteger, 1)
	tests := []struct {
		name string
		run  func(d *Decoder, s *Span)
	}{
		{"wrong tag", func(d *Decoder, s *Span) { d.Bytes(s, ClassUniversal, TagOctetString, Mandatory) }},
		{"missing", func(d *Decoder, s *Span) {
			d.Integer(s, ClassUniversal, TagInteger, Mandatory)
			d.Integer(s, ClassUniversal, TagInteger, Mandatory)
		}},
		{"trailing", func(d *Decoder, s *Span) { d.Done(*s) }},
		{"trailing after skipped optional", func(d *Decoder, s *Span) {
			d.Integer(s, ClassContextSpecific, 0, Optional)
			d.Done(*s)
		}},
	}
	for _, tt := range tests {
		d := NewDecoder(buf)
		s := d.All()
		tt.run(&d, &s)
		if d.Err() == nil {
			t.Errorf("%s: accepted", tt.name)
		}
		// The first error sticks.
		if v := d.Integer(&s, ClassUniversal, TagInteger, Mandatory); v != 0 || d.Err() == nil {
			t.Errorf("%s: decoded %d after an error", tt.name, v)
		}
	}
}

func TestParseBoolContentErrors(t *testing.T) {
	if _, err := ParseBoolContent(nil); err == nil {
		t.Error("empty boolean accepted")
	}
	if _, err := ParseBoolContent([]byte{1, 2}); err == nil {
		t.Error("two-octet boolean accepted")
	}
}

func TestParseIntegerContentErrors(t *testing.T) {
	if _, err := ParseIntegerContent(nil); err == nil {
		t.Error("empty integer accepted")
	}
	if _, err := ParseIntegerContent(make([]byte, 9)); err == nil {
		t.Error("9-octet integer accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
