package mcam

import (
	"testing"
	"time"

	"xmovie/internal/isode"
	"xmovie/internal/transport"
)

// TestServeBusyAnswers: the busy responder runs the hand-coded serving
// loop, so a PDU that is no request gets StatusProtocolError, a request
// gets StatusBusy with the retry-after hint, and a release ends it cleanly.
func TestServeBusyAnswers(t *testing.T) {
	srvEnd, cliEnd := transport.Pipe(0)
	done := make(chan error, 1)
	go func() { done <- ServeBusy(srvEnd, 250*time.Millisecond) }()
	prov, _, err := isode.Connect(cliEnd, "mcam-server", proposedContexts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(data []byte) *Response {
		t.Helper()
		if err := prov.Data(ContextID, data); err != nil {
			t.Fatal(err)
		}
		ctxID, reply, err := prov.RecvData()
		if err != nil {
			t.Fatalf("no answer: %v", err)
		}
		pdu, err := Decode(reply)
		if err != nil || ctxID != ContextID || pdu.Response == nil {
			t.Fatalf("answer on context %d: %+v, %v", ctxID, pdu, err)
		}
		return pdu.Response
	}

	if resp := answer([]byte{0xff, 0x01, 0x00}); resp.Status != StatusProtocolError {
		t.Errorf("garbage PDU answered %s, want %s", resp.Status, StatusProtocolError)
	}
	query, err := (&PDU{Request: &Request{InvokeID: 7, Op: OpQueryAttributes, Movie: "m"}}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := answer(query)
	if resp.Status != StatusBusy || resp.InvokeID != 7 || resp.Op != OpQueryAttributes || resp.RetryAfterMs != 250 {
		t.Errorf("query answered %+v, want StatusBusy for invoke 7 with RetryAfterMs 250", resp)
	}
	if err := prov.Release(nil); err != nil {
		t.Fatalf("release: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeBusy after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeBusy did not return after release")
	}
}
