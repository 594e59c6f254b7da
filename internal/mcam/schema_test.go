package mcam

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

func schema() *asn1ber.Module {
	m, err := compileOnce()
	if err != nil {
		panic(fmt.Sprintf("mcam: bad built-in ASN.1 module: %v", err))
	}
	return m
}

func attrsToValues(attrs []Attr) []any {
	out := make([]any, len(attrs))
	for i, a := range attrs {
		out[i] = map[string]any{"name": a.Name, "value": a.Value}
	}
	return out
}

func valuesToAttrs(v any) []Attr {
	items, _ := v.([]any)
	out := make([]Attr, 0, len(items))
	for _, it := range items {
		m, ok := it.(map[string]any)
		if !ok {
			continue
		}
		name, _ := m["name"].(string)
		value, _ := m["value"].(string)
		out = append(out, Attr{Name: name, Value: value})
	}
	return out
}

// encodeSchema produces the BER encoding through the schema codec.
func (p *PDU) encodeSchema() ([]byte, error) {
	var c asn1ber.Choice
	switch {
	case p.Request != nil:
		r := p.Request
		v := map[string]any{"invokeID": r.InvokeID, "op": int64(r.Op)}
		if r.Movie != "" {
			v["movie"] = r.Movie
		}
		if len(r.Attrs) > 0 {
			v["attrs"] = attrsToValues(r.Attrs)
		}
		setOpt(v, "format", r.Format)
		setOpt(v, "frameRate", r.FrameRate)
		setOpt(v, "position", r.Position)
		setOpt(v, "count", r.Count)
		if r.Device != "" {
			v["device"] = r.Device
		}
		if r.StreamAddr != "" {
			v["streamAddr"] = r.StreamAddr
		}
		setOpt(v, "streamID", r.StreamID)
		c = asn1ber.Choice{Alt: "request", Value: v}
	case p.Response != nil:
		r := p.Response
		v := map[string]any{
			"invokeID": r.InvokeID, "op": int64(r.Op), "status": int64(r.Status),
		}
		if r.Diagnostic != "" {
			v["diagnostic"] = r.Diagnostic
		}
		if len(r.Movies) > 0 {
			items := make([]any, len(r.Movies))
			for i, m := range r.Movies {
				items[i] = m
			}
			v["movies"] = items
		}
		if len(r.Attrs) > 0 {
			v["attrs"] = attrsToValues(r.Attrs)
		}
		setOpt(v, "position", r.Position)
		setOpt(v, "length", r.Length)
		setOpt(v, "frameRate", r.FrameRate)
		setOpt(v, "streamID", r.StreamID)
		setOpt(v, "retryAfterMs", r.RetryAfterMs)
		c = asn1ber.Choice{Alt: "response", Value: v}
	case p.Event != nil:
		e := p.Event
		v := map[string]any{"kind": int64(e.Kind), "streamID": e.StreamID}
		setOpt(v, "position", e.Position)
		if e.Detail != "" {
			v["detail"] = e.Detail
		}
		c = asn1ber.Choice{Alt: "event", Value: v}
	default:
		return nil, fmt.Errorf("mcam: empty PDU")
	}
	return schema().MustLookup("MoviePDU").Encode(nil, c)
}

// setOpt records nonzero optional integers.
func setOpt(v map[string]any, key string, val int64) {
	if val != 0 {
		v[key] = val
	}
}

func optInt(m map[string]any, key string) int64 {
	if v, ok := m[key].(int64); ok {
		return v
	}
	return 0
}

func optStr(m map[string]any, key string) string {
	if v, ok := m[key].(string); ok {
		return v
	}
	return ""
}

// decodeSchema parses a BER-encoded MCAM PDU through the schema codec.
func decodeSchema(data []byte) (*PDU, error) {
	v, err := schema().MustLookup("MoviePDU").DecodeAll(data)
	if err != nil {
		return nil, fmt.Errorf("mcam: %w", err)
	}
	c := v.(asn1ber.Choice)
	m, ok := c.Value.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("mcam: malformed %s PDU", c.Alt)
	}
	out := &PDU{}
	switch c.Alt {
	case "request":
		out.Request = &Request{
			InvokeID:   m["invokeID"].(int64),
			Op:         Op(m["op"].(int64)),
			Movie:      optStr(m, "movie"),
			Attrs:      valuesToAttrs(m["attrs"]),
			Format:     optInt(m, "format"),
			FrameRate:  optInt(m, "frameRate"),
			Position:   optInt(m, "position"),
			Count:      optInt(m, "count"),
			Device:     optStr(m, "device"),
			StreamAddr: optStr(m, "streamAddr"),
			StreamID:   optInt(m, "streamID"),
		}
		if len(out.Request.Attrs) == 0 {
			out.Request.Attrs = nil
		}
	case "response":
		resp := &Response{
			InvokeID:     m["invokeID"].(int64),
			Op:           Op(m["op"].(int64)),
			Status:       Status(m["status"].(int64)),
			Diagnostic:   optStr(m, "diagnostic"),
			Attrs:        valuesToAttrs(m["attrs"]),
			Position:     optInt(m, "position"),
			Length:       optInt(m, "length"),
			FrameRate:    optInt(m, "frameRate"),
			StreamID:     optInt(m, "streamID"),
			RetryAfterMs: optInt(m, "retryAfterMs"),
		}
		if items, ok := m["movies"].([]any); ok {
			for _, it := range items {
				if s, ok := it.(string); ok {
					resp.Movies = append(resp.Movies, s)
				}
			}
		}
		if len(resp.Attrs) == 0 {
			resp.Attrs = nil
		}
		out.Response = resp
	case "event":
		out.Event = &Event{
			Kind:     EventKind(m["kind"].(int64)),
			StreamID: m["streamID"].(int64),
			Position: optInt(m, "position"),
			Detail:   optStr(m, "detail"),
		}
	default:
		return nil, fmt.Errorf("mcam: unknown PDU alternative %q", c.Alt)
	}
	return out, nil
}
