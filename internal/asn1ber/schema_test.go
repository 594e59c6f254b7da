package asn1ber

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// mcamLikeModule is a miniature of the MCAM PDU module exercising every
// supported construct.
const mcamLikeModule = `
Test-PDUs DEFINITIONS ::= BEGIN
  -- a comment
  Format ::= ENUMERATED { mjpeg(0), xmovieRaw(1), mpeg1(2) }

  Attribute ::= SEQUENCE {
     name   UTF8String,
     value  UTF8String
  }

  CreateRequest ::= SEQUENCE {
     invokeID  INTEGER,
     name      UTF8String,
     format    [0] Format DEFAULT 0,
     attrs     [1] SEQUENCE OF Attribute OPTIONAL,
     blob      [2] OCTET STRING OPTIONAL,
     urgent    [3] BOOLEAN DEFAULT FALSE
  }

  Result ::= CHOICE {
     ok    [0] NULL,
     err   [1] IA5String
  }

  CreateResponse ::= SEQUENCE {
     invokeID INTEGER,
     result   Result
  }

  Alias ::= CreateRequest

  PDU ::= CHOICE {
     createRequest  [10] CreateRequest,
     createResponse [11] CreateResponse
  }
END
`

func parseTestModule(t *testing.T) *Module {
	t.Helper()
	m, err := ParseModule(mcamLikeModule)
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	return m
}

func TestParseModuleStructure(t *testing.T) {
	m := parseTestModule(t)
	if m.Name != "Test-PDUs" {
		t.Errorf("module name = %q", m.Name)
	}
	wantOrder := []string{"Format", "Attribute", "CreateRequest", "Result", "CreateResponse", "Alias", "PDU"}
	if !reflect.DeepEqual(m.Order, wantOrder) {
		t.Errorf("order = %v", m.Order)
	}
	cr := m.MustLookup("CreateRequest")
	if cr.Kind != KindSequence || len(cr.Fields) != 6 {
		t.Fatalf("CreateRequest = %+v", cr)
	}
	if f := cr.Fields[2]; f.Tag == nil || f.Tag.Number != 0 || f.Type.Kind != KindEnumerated {
		t.Errorf("format field = %+v (type %v)", f, f.Type.Kind)
	}
	if f := cr.Fields[3]; !f.Optional || f.Type.Kind != KindSequenceOf || f.Type.Elem.Kind != KindSequence {
		t.Errorf("attrs field = %+v", f)
	}
	alias := m.MustLookup("Alias")
	if alias.Kind != KindSequence || len(alias.Fields) != 6 {
		t.Errorf("alias not resolved: %+v", alias)
	}
	if alias.Name != "Alias" {
		t.Errorf("alias name = %q", alias.Name)
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	m := parseTestModule(t)
	cr := m.MustLookup("CreateRequest")
	val := map[string]any{
		"invokeID": int64(7),
		"name":     "casablanca",
		"format":   int64(2),
		"attrs": []any{
			map[string]any{"name": "year", "value": "1942"},
			map[string]any{"name": "fps", "value": "24"},
		},
		"blob":   []byte{1, 2, 3},
		"urgent": true,
	}
	enc, err := cr.Encode(nil, val)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := cr.DecodeAll(enc)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if !reflect.DeepEqual(got, val) {
		t.Errorf("round trip:\n got %#v\nwant %#v", got, val)
	}
}

func TestDefaultsOmittedAndRestored(t *testing.T) {
	m := parseTestModule(t)
	cr := m.MustLookup("CreateRequest")
	val := map[string]any{
		"invokeID": int64(1),
		"name":     "m",
		"format":   int64(0), // equals DEFAULT -> omitted on the wire
		"urgent":   false,    // equals DEFAULT -> omitted
	}
	enc, err := cr.Encode(nil, val)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// No context tag 0 or 3 on the wire.
	d := NewDecoder(enc)
	all := d.All()
	h, inner := d.Next(&all)
	if d.Err() != nil || h.Tag != TagSequence {
		t.Fatalf("outer: %+v %v", h, d.Err())
	}
	for inner.More() {
		fh, _ := d.Next(&inner)
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		if fh.Class == ClassContextSpecific {
			t.Errorf("default-valued field encoded: tag [%d]", fh.Tag)
		}
	}
	got, err := cr.DecodeAll(enc)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	gm := got.(map[string]any)
	if gm["format"] != int64(0) || gm["urgent"] != false {
		t.Errorf("defaults not restored: %#v", gm)
	}
}

func TestChoiceRoundTrip(t *testing.T) {
	m := parseTestModule(t)
	pdu := m.MustLookup("PDU")
	val := Choice{Alt: "createResponse", Value: map[string]any{
		"invokeID": int64(9),
		"result":   Choice{Alt: "err", Value: "no such movie"},
	}}
	enc, err := pdu.Encode(nil, val)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := pdu.DecodeAll(enc)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if !reflect.DeepEqual(got, val) {
		t.Errorf("round trip:\n got %#v\nwant %#v", got, val)
	}
}

func TestChoiceUnknownAlt(t *testing.T) {
	m := parseTestModule(t)
	pdu := m.MustLookup("PDU")
	if _, err := pdu.Encode(nil, Choice{Alt: "bogus"}); err == nil {
		t.Fatal("unknown alternative accepted")
	}
}

func TestMissingMandatoryField(t *testing.T) {
	m := parseTestModule(t)
	cr := m.MustLookup("CreateRequest")
	if _, err := cr.Encode(nil, map[string]any{"invokeID": int64(1)}); err == nil || !strings.Contains(err.Error(), "name") {
		t.Fatalf("missing mandatory field: err = %v", err)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	m := parseTestModule(t)
	cr := m.MustLookup("Attribute")
	_, err := cr.Encode(nil, map[string]any{"name": "a", "value": "b", "typo": "x"})
	if err == nil || !strings.Contains(err.Error(), "typo") {
		t.Fatalf("unknown field: err = %v", err)
	}
}

func TestWrongGoTypeErrors(t *testing.T) {
	m := parseTestModule(t)
	attr := m.MustLookup("Attribute")
	if _, err := attr.Encode(nil, map[string]any{"name": 42, "value": "b"}); err == nil {
		t.Fatal("int for UTF8String accepted")
	}
	if _, err := attr.Encode(nil, "not a map"); err == nil {
		t.Fatal("string for SEQUENCE accepted")
	}
}

func TestParseModuleErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"missing BEGIN", "M DEFINITIONS ::= X END"},
		{"undefined ref", "M DEFINITIONS ::= BEGIN A ::= B END"},
		{"alias cycle", "M DEFINITIONS ::= BEGIN A ::= B B ::= A END"},
		{"duplicate", "M DEFINITIONS ::= BEGIN A ::= INTEGER A ::= INTEGER END"},
		{"bad enum", "M DEFINITIONS ::= BEGIN A ::= ENUMERATED { x(y) } END"},
		{"unterminated", "M DEFINITIONS ::= BEGIN A ::= SEQUENCE { a INTEGER"},
		{"lowercase type", "M DEFINITIONS ::= BEGIN A ::= bogus END"},
	}
	for _, tt := range tests {
		if _, err := ParseModule(tt.src); err == nil {
			t.Errorf("%s: parse accepted %q", tt.name, tt.src)
		}
	}
}

func TestExplicitTag(t *testing.T) {
	src := `M DEFINITIONS ::= BEGIN
	  T ::= SEQUENCE { a [5] EXPLICIT INTEGER }
	END`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	typ := m.MustLookup("T")
	enc, err := typ.Encode(nil, map[string]any{"a": int64(300)})
	if err != nil {
		t.Fatal(err)
	}
	// Outer SEQUENCE -> [5] constructed -> UNIVERSAL INTEGER.
	d := NewDecoder(enc)
	all := d.All()
	_, content := d.Next(&all)
	h, inner := d.Next(&content)
	if d.Err() != nil || h.Class != ClassContextSpecific || h.Tag != 5 || !h.Constructed {
		t.Fatalf("explicit wrapper = %+v, %v", h, d.Err())
	}
	v := d.Integer(&inner, ClassUniversal, TagInteger, Mandatory)
	if d.Err() != nil || v != 300 {
		t.Fatalf("inner integer = %d, %v", v, d.Err())
	}
	got, err := typ.DecodeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.(map[string]any)["a"] != int64(300) {
		t.Errorf("decode explicit = %#v", got)
	}
}

func TestParallelEncodeMatchesSequential(t *testing.T) {
	m := parseTestModule(t)
	cr := m.MustLookup("CreateRequest")
	val := map[string]any{
		"invokeID": int64(7),
		"name":     "casablanca",
		"format":   int64(2),
		"attrs": []any{
			map[string]any{"name": "year", "value": "1942"},
		},
		"urgent": true,
	}
	seq, err := cr.Encode(nil, val)
	if err != nil {
		t.Fatal(err)
	}
	par, err := cr.EncodeParallel(nil, val)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel encoding differs:\nseq %x\npar %x", seq, par)
	}
	gotSeq, err := cr.DecodeAll(seq)
	if err != nil {
		t.Fatal(err)
	}
	gotPar, rest, err := cr.DecodeParallel(par)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeParallel: %v rest=%d", err, len(rest))
	}
	if !reflect.DeepEqual(gotSeq, gotPar) {
		t.Errorf("parallel decode differs")
	}
}

func TestSequenceOfRoundTripQuick(t *testing.T) {
	src := `M DEFINITIONS ::= BEGIN L ::= SEQUENCE OF INTEGER END`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	typ := m.MustLookup("L")
	roundTrip := func(vals []int64) bool {
		in := make([]any, len(vals))
		for i, v := range vals {
			in[i] = v
		}
		enc, err := typ.Encode(nil, in)
		if err != nil {
			return false
		}
		out, err := typ.DecodeAll(enc)
		if err != nil {
			return false
		}
		outs := out.([]any)
		if len(outs) != len(in) {
			return false
		}
		for i := range in {
			if outs[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
