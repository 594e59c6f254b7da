package presentation

import (
	"bytes"
	"strings"
	"testing"
)

// appendCorpus covers every PPDU alternative, optional-field presence
// combinations, empty-but-present user data, and multi-octet lengths.
func appendCorpus() []*PPDU {
	long := []byte(strings.Repeat("y", 400))
	return []*PPDU{
		{CP: &CP{Contexts: []Context{{ID: 1, AbstractSyntax: "mcam-pci-v1"}}}},
		{CP: &CP{CallingSelector: "caller", CalledSelector: "mcam-server",
			Contexts: []Context{{ID: 1, AbstractSyntax: "a"}, {ID: 300, AbstractSyntax: "b"}},
			UserData: []byte{1, 2, 3}}},
		{CP: &CP{CalledSelector: "s", Contexts: []Context{{ID: 7, AbstractSyntax: "x"}},
			UserData: []byte{}}}, // present but empty
		{CP: &CP{Contexts: []Context{{ID: 1, AbstractSyntax: "z"}}, UserData: long}},
		{CPA: &CPA{Results: []Result{{ID: 1, Accepted: true}}}},
		{CPA: &CPA{Results: []Result{{ID: 1, Accepted: true}, {ID: 2, Accepted: false}},
			UserData: long}},
		{CPA: &CPA{Results: nil, UserData: []byte{9}}},
		{CPR: &CPR{Reason: "busy"}},
		{CPR: &CPR{Reason: ""}},
		{TD: &TD{ContextID: 1, Data: []byte("hello")}},
		{TD: &TD{ContextID: 128, Data: long}},
		{TD: &TD{ContextID: -5, Data: []byte{}}},
		{ARP: &ARP{Reason: "protocol error"}},
	}
}

// TestAppendMatchesSchemaEncoder proves the append fast path and the
// schema reference encoder produce byte-identical output, and that Decode
// accepts the result.
func TestAppendMatchesSchemaEncoder(t *testing.T) {
	for i, p := range appendCorpus() {
		ref, err := p.encodeSchema()
		if err != nil {
			t.Fatalf("corpus[%d]: schema encode: %v", i, err)
		}
		fast, err := p.Append(nil)
		if err != nil {
			t.Fatalf("corpus[%d]: append encode: %v", i, err)
		}
		if !bytes.Equal(ref, fast) {
			t.Errorf("corpus[%d]: append path diverges from schema encoder\nschema: %x\nappend: %x", i, ref, fast)
			continue
		}
		if _, err := Decode(fast); err != nil {
			t.Errorf("corpus[%d]: Decode rejects append encoding: %v", i, err)
		}
	}
}

// TestAppendEmptyPPDURejected mirrors the schema path's empty-PPDU error.
func TestAppendEmptyPPDURejected(t *testing.T) {
	if _, err := (&PPDU{}).Append(nil); err == nil {
		t.Fatal("empty PPDU encoded without error")
	}
}

// TestPPDUEncodeAllocs is the allocation regression guard: the TD data
// path (every in-association message crosses it) must not allocate when
// encoding into a reused buffer.
func TestPPDUEncodeAllocs(t *testing.T) {
	td := &PPDU{TD: &TD{ContextID: 1, Data: []byte("payload-bytes")}}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = td.Append(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("PPDU append path allocates %.1f times per encode, want 0", allocs)
	}
}
