package presentation

import (
	"fmt"

	"xmovie/internal/asn1ber"
)

// This file is the typed PPDU decoder, the mirror of ppdu_append.go: it
// walks the BER with an asn1ber.Decoder straight into the PPDU structs. It
// accepts exactly what the schema codec accepts for ModuleText; the schema
// decoder, kept in the tests as the oracle, checks that
// (TestDecodeMatchesSchema, FuzzDecode).

const (
	mandatory = asn1ber.Mandatory
	optional  = asn1ber.Optional
)

// Decode parses a BER-encoded PPDU.
//
// TD.Data and the UserData fields alias data, so the caller must own data
// and leave it unchanged while the PPDU is in use: both stacks pass the
// session user data of an SPDU parsed from a buffer transport.Conn.Recv
// handed over. A TD is one allocation.
func Decode(data []byte) (*PPDU, error) {
	d := asn1ber.NewDecoder(data)
	all := d.All()
	h, s := d.Next(&all)
	d.Done(all)
	var p *PPDU
	if d.Err() == nil && h.Class == clsCtx {
		switch h.Tag {
		case tagCP:
			p = decodeCP(&d, s)
		case tagCPA:
			p = decodeCPA(&d, s)
		case tagCPR:
			o := new(struct {
				p   PPDU
				cpr CPR
			})
			o.cpr.Reason = decodeReason(&d, s)
			o.p.CPR = &o.cpr
			p = &o.p
		case tagTD:
			p = decodeTD(&d, s)
		case tagARP:
			o := new(struct {
				p   PPDU
				arp ARP
			})
			o.arp.Reason = decodeReason(&d, s)
			o.p.ARP = &o.arp
			p = &o.p
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("presentation: %w", err)
	}
	if p == nil {
		return nil, fmt.Errorf("presentation: %w: no PPDU alternative is %s %d", asn1ber.ErrBadValue, h.Class, h.Tag)
	}
	return p, nil
}

func decodeCP(d *asn1ber.Decoder, s asn1ber.Span) *PPDU {
	o := new(struct {
		p  PPDU
		cp CP
	})
	cp := &o.cp
	cp.CallingSelector = d.String(&s, clsCtx, 0, optional)
	cp.CalledSelector = d.String(&s, clsCtx, 1, optional)
	list, _ := d.Element(&s, clsCtx, 2, mandatory)
	if n := d.Count(list); n > 0 {
		cp.Contexts = make([]Context, n)
		for i := range cp.Contexts {
			item, _ := d.Element(&list, clsUni, asn1ber.TagSequence, mandatory)
			cp.Contexts[i].ID = d.Integer(&item, clsUni, asn1ber.TagInteger, mandatory)
			cp.Contexts[i].AbstractSyntax = d.String(&item, clsUni, asn1ber.TagIA5String, mandatory)
			d.Done(item)
		}
	}
	cp.UserData = d.Bytes(&s, clsCtx, 3, optional)
	d.Done(s)
	o.p.CP = cp
	return &o.p
}

func decodeCPA(d *asn1ber.Decoder, s asn1ber.Span) *PPDU {
	o := new(struct {
		p   PPDU
		cpa CPA
	})
	cpa := &o.cpa
	list, _ := d.Element(&s, clsCtx, 0, mandatory)
	if n := d.Count(list); n > 0 {
		cpa.Results = make([]Result, n)
		for i := range cpa.Results {
			item, _ := d.Element(&list, clsUni, asn1ber.TagSequence, mandatory)
			cpa.Results[i].ID = d.Integer(&item, clsUni, asn1ber.TagInteger, mandatory)
			cpa.Results[i].Accepted = d.Bool(&item, clsUni, asn1ber.TagBoolean, mandatory)
			d.Done(item)
		}
	}
	cpa.UserData = d.Bytes(&s, clsCtx, 1, optional)
	d.Done(s)
	o.p.CPA = cpa
	return &o.p
}

// decodeReason decodes the single-field CPR/ARP shapes.
func decodeReason(d *asn1ber.Decoder, s asn1ber.Span) string {
	reason := d.String(&s, clsUni, asn1ber.TagIA5String, mandatory)
	d.Done(s)
	return reason
}

func decodeTD(d *asn1ber.Decoder, s asn1ber.Span) *PPDU {
	o := new(struct {
		p  PPDU
		td TD
	})
	o.td.ContextID = d.Integer(&s, clsUni, asn1ber.TagInteger, mandatory)
	o.td.Data = d.Bytes(&s, clsUni, asn1ber.TagOctetString, mandatory)
	d.Done(s)
	o.p.TD = &o.td
	return &o.p
}
