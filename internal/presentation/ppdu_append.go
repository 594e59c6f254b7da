package presentation

import (
	"fmt"

	"xmovie/internal/asn1ber"
)

// This file is the append-path PPDU encoder: a hand-specialized two-pass
// (size, then emit) BER writer producing output byte-identical to the
// schema reference encoder without the map[string]any value layer
// (TestAppendMatchesSchemaEncoder); ppdu_decode.go is its mirror.

// PPDU CHOICE alternative tags (implicit, context class).
const (
	tagCP  uint32 = 10
	tagCPA uint32 = 11
	tagCPR uint32 = 12
	tagTD  uint32 = 13
	tagARP uint32 = 14
)

const (
	clsCtx = asn1ber.ClassContextSpecific
	clsUni = asn1ber.ClassUniversal
)

func sizeInt(v int64) int { return asn1ber.SizeTLV(asn1ber.IntegerContentLen(v)) }

// Append appends the BER encoding of the PPDU to dst — the allocation-free
// fast path used by both control stacks.
func (p *PPDU) Append(dst []byte) ([]byte, error) {
	switch {
	case p.CP != nil:
		return appendCP(dst, p.CP), nil
	case p.CPA != nil:
		return appendCPA(dst, p.CPA), nil
	case p.CPR != nil:
		return appendReason(dst, tagCPR, p.CPR.Reason), nil
	case p.TD != nil:
		return appendTD(dst, p.TD), nil
	case p.ARP != nil:
		return appendReason(dst, tagARP, p.ARP.Reason), nil
	default:
		return nil, fmt.Errorf("presentation: empty PPDU")
	}
}

func contextItemContentLen(c *Context) int {
	return sizeInt(c.ID) + asn1ber.SizeTLV(len(c.AbstractSyntax))
}

func contextListContentLen(ctxs []Context) int {
	n := 0
	for i := range ctxs {
		n += asn1ber.SizeTLV(contextItemContentLen(&ctxs[i]))
	}
	return n
}

func cpContentLen(cp *CP) int {
	n := 0
	if cp.CallingSelector != "" {
		n += asn1ber.SizeTLV(len(cp.CallingSelector))
	}
	if cp.CalledSelector != "" {
		n += asn1ber.SizeTLV(len(cp.CalledSelector))
	}
	n += asn1ber.SizeTLV(contextListContentLen(cp.Contexts))
	if cp.UserData != nil {
		n += asn1ber.SizeTLV(len(cp.UserData))
	}
	return n
}

func appendCP(dst []byte, cp *CP) []byte {
	dst = asn1ber.AppendHeader(dst, clsCtx, true, tagCP, cpContentLen(cp))
	if cp.CallingSelector != "" {
		dst = asn1ber.AppendString(dst, clsCtx, 0, cp.CallingSelector)
	}
	if cp.CalledSelector != "" {
		dst = asn1ber.AppendString(dst, clsCtx, 1, cp.CalledSelector)
	}
	dst = asn1ber.AppendHeader(dst, clsCtx, true, 2, contextListContentLen(cp.Contexts))
	for i := range cp.Contexts {
		c := &cp.Contexts[i]
		dst = asn1ber.AppendHeader(dst, clsUni, true, asn1ber.TagSequence, contextItemContentLen(c))
		dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagInteger, c.ID)
		dst = asn1ber.AppendString(dst, clsUni, asn1ber.TagIA5String, c.AbstractSyntax)
	}
	if cp.UserData != nil {
		dst = asn1ber.AppendBytes(dst, clsCtx, 3, cp.UserData)
	}
	return dst
}

func resultItemContentLen(r *Result) int {
	return sizeInt(r.ID) + asn1ber.SizeTLV(1) // BOOLEAN content is one octet
}

func resultListContentLen(results []Result) int {
	n := 0
	for i := range results {
		n += asn1ber.SizeTLV(resultItemContentLen(&results[i]))
	}
	return n
}

func cpaContentLen(cpa *CPA) int {
	n := asn1ber.SizeTLV(resultListContentLen(cpa.Results))
	if cpa.UserData != nil {
		n += asn1ber.SizeTLV(len(cpa.UserData))
	}
	return n
}

func appendCPA(dst []byte, cpa *CPA) []byte {
	dst = asn1ber.AppendHeader(dst, clsCtx, true, tagCPA, cpaContentLen(cpa))
	dst = asn1ber.AppendHeader(dst, clsCtx, true, 0, resultListContentLen(cpa.Results))
	for i := range cpa.Results {
		r := &cpa.Results[i]
		dst = asn1ber.AppendHeader(dst, clsUni, true, asn1ber.TagSequence, resultItemContentLen(r))
		dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagInteger, r.ID)
		dst = asn1ber.AppendBool(dst, clsUni, asn1ber.TagBoolean, r.Accepted)
	}
	if cpa.UserData != nil {
		dst = asn1ber.AppendBytes(dst, clsCtx, 1, cpa.UserData)
	}
	return dst
}

// appendReason encodes the single-field CPR/ARP shapes.
func appendReason(dst []byte, tag uint32, reason string) []byte {
	dst = asn1ber.AppendHeader(dst, clsCtx, true, tag, asn1ber.SizeTLV(len(reason)))
	return asn1ber.AppendString(dst, clsUni, asn1ber.TagIA5String, reason)
}

func tdContentLen(td *TD) int {
	return sizeInt(td.ContextID) + asn1ber.SizeTLV(len(td.Data))
}

func appendTD(dst []byte, td *TD) []byte {
	dst = asn1ber.AppendHeader(dst, clsCtx, true, tagTD, tdContentLen(td))
	dst = asn1ber.AppendInteger(dst, clsUni, asn1ber.TagInteger, td.ContextID)
	return asn1ber.AppendBytes(dst, clsUni, asn1ber.TagOctetString, td.Data)
}
