package mcam

import (
	"bytes"
	"strings"
	"testing"
)

// appendCorpus covers every CHOICE alternative, presence/absence of each
// optional field, multi-octet integers, negative integers, and contents
// long enough to need multi-octet BER lengths.
func appendCorpus() []*PDU {
	long := strings.Repeat("x", 300) // forces 0x82-form lengths
	return []*PDU{
		{Request: &Request{InvokeID: 1, Op: OpListMovies}},
		{Request: &Request{InvokeID: 127, Op: OpCreate, Movie: "m",
			Attrs: []Attr{{Name: "title", Value: "T"}}, Format: 1, FrameRate: 25}},
		{Request: &Request{InvokeID: 128, Op: OpPlay, Movie: "clip-0042",
			Position: 70000, Count: 256, StreamAddr: "127.0.0.1:9000", StreamID: 65536}},
		{Request: &Request{InvokeID: -42, Op: OpSeek, Movie: long, Position: -9}},
		{Request: &Request{InvokeID: 9, Op: OpRecord, Device: "cam0",
			Attrs: []Attr{{Name: "a", Value: long}, {Name: "b", Value: ""}}}},
		{Response: &Response{InvokeID: 1, Op: OpListMovies, Status: StatusSuccess,
			Movies: []string{"one", "two", long}}},
		{Response: &Response{InvokeID: 2, Op: OpPlay, Status: StatusBadState,
			Diagnostic: "not selected"}},
		{Response: &Response{InvokeID: 300, Op: OpQueryAttributes, Status: StatusSuccess,
			Attrs:    []Attr{{Name: "title", Value: "Benchmark"}, {Name: "len", Value: "5400"}},
			Position: 10, Length: 5400, FrameRate: 25, StreamID: 7}},
		{Response: &Response{InvokeID: -1, Op: OpStop, Status: StatusStreamError,
			Diagnostic: long, Position: 1 << 30}},
		{Response: &Response{InvokeID: 4, Op: OpSelect, Status: StatusBusy,
			Diagnostic: "server full", RetryAfterMs: 1500}},
		{Event: &Event{Kind: EventStreamStarted, StreamID: 1}},
		{Event: &Event{Kind: EventStreamProgress, StreamID: 7, Position: 4096}},
		{Event: &Event{Kind: EventStreamAborted, StreamID: 1 << 20, Detail: long}},
	}
}

// TestAppendMatchesSchemaEncoder proves the append fast path and the
// schema reference encoder produce byte-identical output for the corpus,
// and that the result still decodes to an equivalent PDU.
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

// TestAppendIntoPrefixedBuffer checks Append really appends (and leaves the
// prefix intact) so callers can reuse buffers carrying framing.
func TestAppendIntoPrefixedBuffer(t *testing.T) {
	p := &PDU{Event: &Event{Kind: EventStreamCompleted, StreamID: 3}}
	prefix := []byte{0xde, 0xad}
	out, err := p.Append(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("prefix clobbered: %x", out)
	}
	enc, err := p.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[len(prefix):], enc) {
		t.Fatalf("appended encoding differs from fresh encoding")
	}
}

// TestAppendEmptyPDURejected mirrors the schema path's empty-PDU error.
func TestAppendEmptyPDURejected(t *testing.T) {
	if _, err := (&PDU{}).Append(nil); err == nil {
		t.Fatal("empty PDU encoded without error")
	}
}

// TestPDUEncodeAllocs is the allocation regression guard for the append
// path: encoding into a reused buffer must not allocate at all.
func TestPDUEncodeAllocs(t *testing.T) {
	pdus := appendCorpus()
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range pdus {
			var err error
			buf, err = p.Append(buf[:0])
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("PDU append path allocates %.1f times per corpus encode, want 0", allocs)
	}
}
