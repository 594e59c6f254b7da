package mcam

import (
	"fmt"

	"xmovie/internal/asn1ber"
)

// This file is the typed PDU decoder, the mirror of pdu_append.go: it walks
// the BER with an asn1ber.Decoder straight into the PDU structs, with no
// intermediate value layer. It accepts exactly what the schema codec
// accepts for ModuleText; the schema decoder, kept in the tests as the
// oracle, checks that (TestDecodeMatchesSchema, FuzzDecode).

const (
	mandatory = asn1ber.Mandatory
	optional  = asn1ber.Optional
)

// Decode parses a BER-encoded MCAM PDU.
//
// The result does not alias data: every string field is a substring of one
// string conversion of data. A PDU without lists is at most two
// allocations (the PDU together with its Request, Response or Event, and
// that string); each list adds one slice, sized by a counting pass.
func Decode(data []byte) (*PDU, error) {
	d := asn1ber.NewDecoder(data)
	all := d.All()
	h, s := d.Next(&all)
	d.Done(all)
	var p *PDU
	if d.Err() == nil && h.Class == clsCtx {
		switch h.Tag {
		case tagRequest:
			p = decodeRequest(&d, s)
		case tagResponse:
			p = decodeResponse(&d, s)
		case tagEvent:
			p = decodeEvent(&d, s)
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("mcam: %w", err)
	}
	if p == nil {
		return nil, fmt.Errorf("mcam: %w: no MoviePDU alternative is %s %d", asn1ber.ErrBadValue, h.Class, h.Tag)
	}
	return p, nil
}

func decodeRequest(d *asn1ber.Decoder, s asn1ber.Span) *PDU {
	o := new(struct {
		pdu PDU
		r   Request
	})
	r := &o.r
	r.InvokeID = d.Integer(&s, clsUni, asn1ber.TagInteger, mandatory)
	r.Op = Op(d.Integer(&s, clsUni, asn1ber.TagEnumerated, mandatory))
	r.Movie = d.String(&s, clsCtx, 0, optional)
	r.Attrs = decodeAttrs(d, &s, 1)
	r.Format = d.Integer(&s, clsCtx, 2, optional)
	r.FrameRate = d.Integer(&s, clsCtx, 3, optional)
	r.Position = d.Integer(&s, clsCtx, 4, optional)
	r.Count = d.Integer(&s, clsCtx, 5, optional)
	r.Device = d.String(&s, clsCtx, 6, optional)
	r.StreamAddr = d.String(&s, clsCtx, 7, optional)
	r.StreamID = d.Integer(&s, clsCtx, 8, optional)
	d.Done(s)
	o.pdu.Request = r
	return &o.pdu
}

func decodeResponse(d *asn1ber.Decoder, s asn1ber.Span) *PDU {
	o := new(struct {
		pdu PDU
		r   Response
	})
	r := &o.r
	r.InvokeID = d.Integer(&s, clsUni, asn1ber.TagInteger, mandatory)
	r.Op = Op(d.Integer(&s, clsUni, asn1ber.TagEnumerated, mandatory))
	r.Status = Status(d.Integer(&s, clsUni, asn1ber.TagEnumerated, mandatory))
	r.Diagnostic = d.String(&s, clsCtx, 0, optional)
	r.Movies = decodeMovies(d, &s, 1)
	r.Attrs = decodeAttrs(d, &s, 2)
	r.Position = d.Integer(&s, clsCtx, 3, optional)
	r.Length = d.Integer(&s, clsCtx, 4, optional)
	r.FrameRate = d.Integer(&s, clsCtx, 5, optional)
	r.StreamID = d.Integer(&s, clsCtx, 6, optional)
	r.RetryAfterMs = d.Integer(&s, clsCtx, 7, optional)
	d.Done(s)
	o.pdu.Response = r
	return &o.pdu
}

func decodeEvent(d *asn1ber.Decoder, s asn1ber.Span) *PDU {
	o := new(struct {
		pdu PDU
		e   Event
	})
	e := &o.e
	e.Kind = EventKind(d.Integer(&s, clsUni, asn1ber.TagEnumerated, mandatory))
	e.StreamID = d.Integer(&s, clsUni, asn1ber.TagInteger, mandatory)
	e.Position = d.Integer(&s, clsCtx, 0, optional)
	e.Detail = d.String(&s, clsCtx, 1, optional)
	d.Done(s)
	o.pdu.Event = e
	return &o.pdu
}

// decodeAttrs decodes an optional [tag] SEQUENCE OF Attribute; an absent or
// empty list is nil.
func decodeAttrs(d *asn1ber.Decoder, s *asn1ber.Span, tag uint32) []Attr {
	list, _ := d.Element(s, clsCtx, tag, optional)
	n := d.Count(list)
	if n == 0 {
		return nil
	}
	attrs := make([]Attr, n)
	for i := range attrs {
		a, _ := d.Element(&list, clsUni, asn1ber.TagSequence, mandatory)
		attrs[i].Name = d.String(&a, clsUni, asn1ber.TagUTF8String, mandatory)
		attrs[i].Value = d.String(&a, clsUni, asn1ber.TagUTF8String, mandatory)
		d.Done(a)
	}
	return attrs
}

// decodeMovies decodes an optional [tag] SEQUENCE OF UTF8String; an absent
// or empty list is nil.
func decodeMovies(d *asn1ber.Decoder, s *asn1ber.Span, tag uint32) []string {
	list, _ := d.Element(s, clsCtx, tag, optional)
	n := d.Count(list)
	if n == 0 {
		return nil
	}
	movies := make([]string, n)
	for i := range movies {
		movies[i] = d.String(&list, clsUni, asn1ber.TagUTF8String, mandatory)
	}
	return movies
}
