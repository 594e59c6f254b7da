package mcam

import (
	"fmt"

	"xmovie/internal/asn1ber"
)

// This file is the append-path PDU encoder: a hand-specialized two-pass
// (size, then emit) BER writer over the asn1ber primitives that produces
// output byte-identical to the schema reference encoder while allocating
// nothing beyond the destination buffer. TestAppendMatchesSchemaEncoder
// proves the equivalence over a PDU corpus; pdu_decode.go is its mirror.

// MoviePDU CHOICE alternative tags (implicit, context class).
const (
	tagRequest  uint32 = 1
	tagResponse uint32 = 2
	tagEvent    uint32 = 3
)

const (
	clsCtx = asn1ber.ClassContextSpecific
	clsUni = asn1ber.ClassUniversal
)

func sizeInt(v int64) int  { return asn1ber.SizeTLV(asn1ber.IntegerContentLen(v)) }
func sizeStr(s string) int { return asn1ber.SizeTLV(len(s)) }

// Append appends the BER encoding of the PDU to dst — the allocation-free
// fast path used by both control stacks.
func (p *PDU) Append(dst []byte) ([]byte, error) {
	switch {
	case p.Request != nil:
		return appendRequest(dst, p.Request), nil
	case p.Response != nil:
		return appendResponse(dst, p.Response), nil
	case p.Event != nil:
		return appendEvent(dst, p.Event), nil
	default:
		return nil, fmt.Errorf("mcam: empty PDU")
	}
}

// attrContentLen is the content length of one Attribute SEQUENCE.
func attrContentLen(a *Attr) int {
	return sizeStr(a.Name) + sizeStr(a.Value)
}

// attrsContentLen is the content length of a SEQUENCE OF Attribute.
func attrsContentLen(attrs []Attr) int {
	n := 0
	for i := range attrs {
		n += asn1ber.SizeTLV(attrContentLen(&attrs[i]))
	}
	return n
}

func appendAttrs(dst []byte, tag uint32, attrs []Attr) []byte {
	dst = asn1ber.AppendHeader(dst, clsCtx, true, tag, attrsContentLen(attrs))
	for i := range attrs {
		a := &attrs[i]
		dst = asn1ber.AppendHeader(dst, clsUni, true, asn1ber.TagSequence, attrContentLen(a))
		dst = asn1ber.AppendString(dst, clsUni, asn1ber.TagUTF8String, a.Name)
		dst = asn1ber.AppendString(dst, clsUni, asn1ber.TagUTF8String, a.Value)
	}
	return dst
}

func requestContentLen(r *Request) int {
	n := sizeInt(r.InvokeID) + sizeInt(int64(r.Op))
	if r.Movie != "" {
		n += sizeStr(r.Movie)
	}
	if len(r.Attrs) > 0 {
		n += asn1ber.SizeTLV(attrsContentLen(r.Attrs))
	}
	for _, v := range [...]int64{r.Format, r.FrameRate, r.Position, r.Count} {
		if v != 0 {
			n += sizeInt(v)
		}
	}
	if r.Device != "" {
		n += sizeStr(r.Device)
	}
	if r.StreamAddr != "" {
		n += sizeStr(r.StreamAddr)
	}
	if r.StreamID != 0 {
		n += sizeInt(r.StreamID)
	}
	return n
}

func appendRequest(dst []byte, r *Request) []byte {
	dst = asn1ber.AppendHeader(dst, clsCtx, true, tagRequest, requestContentLen(r))
	dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagInteger, r.InvokeID)
	dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagEnumerated, int64(r.Op))
	if r.Movie != "" {
		dst = asn1ber.AppendString(dst, clsCtx, 0, r.Movie)
	}
	if len(r.Attrs) > 0 {
		dst = appendAttrs(dst, 1, r.Attrs)
	}
	if r.Format != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 2, r.Format)
	}
	if r.FrameRate != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 3, r.FrameRate)
	}
	if r.Position != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 4, r.Position)
	}
	if r.Count != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 5, r.Count)
	}
	if r.Device != "" {
		dst = asn1ber.AppendString(dst, clsCtx, 6, r.Device)
	}
	if r.StreamAddr != "" {
		dst = asn1ber.AppendString(dst, clsCtx, 7, r.StreamAddr)
	}
	if r.StreamID != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 8, r.StreamID)
	}
	return dst
}

// moviesContentLen is the content length of a SEQUENCE OF UTF8String.
func moviesContentLen(movies []string) int {
	n := 0
	for _, m := range movies {
		n += sizeStr(m)
	}
	return n
}

func responseContentLen(r *Response) int {
	n := sizeInt(r.InvokeID) + sizeInt(int64(r.Op)) + sizeInt(int64(r.Status))
	if r.Diagnostic != "" {
		n += sizeStr(r.Diagnostic)
	}
	if len(r.Movies) > 0 {
		n += asn1ber.SizeTLV(moviesContentLen(r.Movies))
	}
	if len(r.Attrs) > 0 {
		n += asn1ber.SizeTLV(attrsContentLen(r.Attrs))
	}
	for _, v := range [...]int64{r.Position, r.Length, r.FrameRate, r.StreamID, r.RetryAfterMs} {
		if v != 0 {
			n += sizeInt(v)
		}
	}
	return n
}

func appendResponse(dst []byte, r *Response) []byte {
	dst = asn1ber.AppendHeader(dst, clsCtx, true, tagResponse, responseContentLen(r))
	dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagInteger, r.InvokeID)
	dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagEnumerated, int64(r.Op))
	dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagEnumerated, int64(r.Status))
	if r.Diagnostic != "" {
		dst = asn1ber.AppendString(dst, clsCtx, 0, r.Diagnostic)
	}
	if len(r.Movies) > 0 {
		dst = asn1ber.AppendHeader(dst, clsCtx, true, 1, moviesContentLen(r.Movies))
		for _, m := range r.Movies {
			dst = asn1ber.AppendString(dst, clsUni, asn1ber.TagUTF8String, m)
		}
	}
	if len(r.Attrs) > 0 {
		dst = appendAttrs(dst, 2, r.Attrs)
	}
	if r.Position != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 3, r.Position)
	}
	if r.Length != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 4, r.Length)
	}
	if r.FrameRate != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 5, r.FrameRate)
	}
	if r.StreamID != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 6, r.StreamID)
	}
	if r.RetryAfterMs != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 7, r.RetryAfterMs)
	}
	return dst
}

func eventContentLen(e *Event) int {
	n := sizeInt(int64(e.Kind)) + sizeInt(e.StreamID)
	if e.Position != 0 {
		n += sizeInt(e.Position)
	}
	if e.Detail != "" {
		n += sizeStr(e.Detail)
	}
	return n
}

func appendEvent(dst []byte, e *Event) []byte {
	dst = asn1ber.AppendHeader(dst, clsCtx, true, tagEvent, eventContentLen(e))
	dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagEnumerated, int64(e.Kind))
	dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagInteger, e.StreamID)
	if e.Position != 0 {
		dst = asn1ber.AppendInteger(dst, clsCtx, 0, e.Position)
	}
	if e.Detail != "" {
		dst = asn1ber.AppendString(dst, clsCtx, 1, e.Detail)
	}
	return dst
}
