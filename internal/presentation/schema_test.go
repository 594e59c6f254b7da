package presentation

import (
	"fmt"
	"sync"

	"xmovie/internal/asn1ber"
)

// The schema codec for ModuleText: the generic asn1ber interpreter over
// map[string]any values. It is the reference the typed codec is checked
// against — Append byte for byte (TestAppendMatchesSchemaEncoder), Decode
// value for value and error for error (TestDecodeMatchesSchema,
// FuzzDecode).

var compileOnce = sync.OnceValues(func() (*asn1ber.Module, error) {
	return asn1ber.ParseModule(ModuleText)
})

// schema returns the compiled PPDU schema.
func schema() *asn1ber.Module {
	m, err := compileOnce()
	if err != nil {
		panic(fmt.Sprintf("presentation: bad built-in ASN.1 module: %v", err))
	}
	return m
}

// encodeSchema produces the BER encoding through the schema codec.
func (p *PPDU) encodeSchema() ([]byte, error) {
	var c asn1ber.Choice
	switch {
	case p.CP != nil:
		items := make([]any, len(p.CP.Contexts))
		for i, ctx := range p.CP.Contexts {
			items[i] = map[string]any{"id": ctx.ID, "abstractSyntax": ctx.AbstractSyntax}
		}
		v := map[string]any{"contextList": items}
		if p.CP.CallingSelector != "" {
			v["callingSelector"] = p.CP.CallingSelector
		}
		if p.CP.CalledSelector != "" {
			v["calledSelector"] = p.CP.CalledSelector
		}
		if p.CP.UserData != nil {
			v["userData"] = p.CP.UserData
		}
		c = asn1ber.Choice{Alt: "cp", Value: v}
	case p.CPA != nil:
		items := make([]any, len(p.CPA.Results))
		for i, r := range p.CPA.Results {
			items[i] = map[string]any{"id": r.ID, "accepted": r.Accepted}
		}
		v := map[string]any{"resultList": items}
		if p.CPA.UserData != nil {
			v["userData"] = p.CPA.UserData
		}
		c = asn1ber.Choice{Alt: "cpa", Value: v}
	case p.CPR != nil:
		c = asn1ber.Choice{Alt: "cpr", Value: map[string]any{"reason": p.CPR.Reason}}
	case p.TD != nil:
		c = asn1ber.Choice{Alt: "td", Value: map[string]any{
			"contextID": p.TD.ContextID, "data": p.TD.Data,
		}}
	case p.ARP != nil:
		c = asn1ber.Choice{Alt: "arp", Value: map[string]any{"reason": p.ARP.Reason}}
	default:
		return nil, fmt.Errorf("presentation: empty PPDU")
	}
	return schema().MustLookup("PPDU").Encode(nil, c)
}

// decodeSchema parses a BER-encoded PPDU through the schema codec.
func decodeSchema(data []byte) (*PPDU, error) {
	v, err := schema().MustLookup("PPDU").DecodeAll(data)
	if err != nil {
		return nil, fmt.Errorf("presentation: %w", err)
	}
	c := v.(asn1ber.Choice)
	out := &PPDU{}
	switch c.Alt {
	case "cp":
		m := c.Value.(map[string]any)
		cp := &CP{}
		if s, ok := m["callingSelector"].(string); ok {
			cp.CallingSelector = s
		}
		if s, ok := m["calledSelector"].(string); ok {
			cp.CalledSelector = s
		}
		for _, item := range m["contextList"].([]any) {
			im := item.(map[string]any)
			cp.Contexts = append(cp.Contexts, Context{
				ID:             im["id"].(int64),
				AbstractSyntax: im["abstractSyntax"].(string),
			})
		}
		if b, ok := m["userData"].([]byte); ok {
			cp.UserData = b
		}
		out.CP = cp
	case "cpa":
		m := c.Value.(map[string]any)
		cpa := &CPA{}
		for _, item := range m["resultList"].([]any) {
			im := item.(map[string]any)
			cpa.Results = append(cpa.Results, Result{
				ID:       im["id"].(int64),
				Accepted: im["accepted"].(bool),
			})
		}
		if b, ok := m["userData"].([]byte); ok {
			cpa.UserData = b
		}
		out.CPA = cpa
	case "cpr":
		out.CPR = &CPR{Reason: c.Value.(map[string]any)["reason"].(string)}
	case "td":
		m := c.Value.(map[string]any)
		out.TD = &TD{ContextID: m["contextID"].(int64), Data: m["data"].([]byte)}
	case "arp":
		out.ARP = &ARP{Reason: c.Value.(map[string]any)["reason"].(string)}
	default:
		return nil, fmt.Errorf("presentation: unknown PPDU alternative %q", c.Alt)
	}
	return out, nil
}
