package isode

import (
	"bytes"
	"errors"
	"testing"

	"xmovie/internal/estelle"
	"xmovie/internal/presentation"
	"xmovie/internal/session"
	"xmovie/internal/transport"
)

var testContexts = []presentation.Context{
	{ID: 1, AbstractSyntax: "mcam-pci"},
	{ID: 2, AbstractSyntax: "directory-pci"},
}

func TestConnectAcceptDataRelease(t *testing.T) {
	ca, cb := transport.Pipe(0)
	type acceptResult struct {
		prov *Provider
		cp   *presentation.CP
		err  error
	}
	acceptCh := make(chan acceptResult, 1)
	go func() {
		prov, cp, err := Accept(cb, func(cp *presentation.CP) AcceptDecision {
			return AcceptDecision{Accept: true, UserData: []byte("granted")}
		})
		acceptCh <- acceptResult{prov, cp, err}
	}()

	client, ud, err := Connect(ca, "mcam-server", testContexts, []byte("assoc-req"))
	if err != nil {
		t.Fatal(err)
	}
	if string(ud) != "granted" {
		t.Errorf("accept user data = %q", ud)
	}
	if len(client.Contexts()) != 2 {
		t.Errorf("contexts = %v", client.Contexts())
	}
	ar := <-acceptCh
	if ar.err != nil {
		t.Fatal(ar.err)
	}
	if ar.cp.CalledSelector != "mcam-server" || !bytes.Equal(ar.cp.UserData, []byte("assoc-req")) {
		t.Errorf("server saw CP %+v", ar.cp)
	}

	// Data both directions.
	if err := client.Data(1, []byte("play pdu")); err != nil {
		t.Fatal(err)
	}
	id, data, err := ar.prov.RecvData()
	if err != nil || id != 1 || string(data) != "play pdu" {
		t.Fatalf("server RecvData = %d %q %v", id, data, err)
	}
	if err := ar.prov.Data(2, []byte("dir answer")); err != nil {
		t.Fatal(err)
	}
	id, data, err = client.RecvData()
	if err != nil || id != 2 || string(data) != "dir answer" {
		t.Fatalf("client RecvData = %d %q %v", id, data, err)
	}

	// Orderly release from the client.
	relDone := make(chan error, 1)
	go func() { relDone <- client.Release([]byte("bye")) }()
	if _, _, err := ar.prov.RecvData(); !errors.Is(err, ErrReleased) {
		t.Fatalf("server RecvData during release = %v", err)
	}
	if string(ar.prov.ReleaseData()) != "bye" {
		t.Errorf("release data = %q", ar.prov.ReleaseData())
	}
	if err := ar.prov.AcceptRelease(); err != nil {
		t.Fatal(err)
	}
	if err := <-relDone; err != nil {
		t.Fatal(err)
	}
}

func TestRefuse(t *testing.T) {
	ca, cb := transport.Pipe(0)
	go func() {
		_, _, _ = Accept(cb, func(*presentation.CP) AcceptDecision {
			return AcceptDecision{Accept: false, RefuseReason: "server full"}
		})
	}()
	_, _, err := Connect(ca, "srv", testContexts, nil)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("Connect = %v, want ErrRefused", err)
	}
}

func TestDataOnUnknownContext(t *testing.T) {
	p := &Provider{contexts: map[int64]string{1: "x"}}
	if err := p.Data(9, []byte("x")); err == nil {
		t.Error("data on unknown context accepted")
	}
}

func TestAbort(t *testing.T) {
	ca, cb := transport.Pipe(0)
	done := make(chan error, 1)
	go func() {
		prov, _, err := Accept(cb, func(*presentation.CP) AcceptDecision {
			return AcceptDecision{Accept: true}
		})
		if err != nil {
			done <- err
			return
		}
		_, _, err = prov.RecvData()
		done <- err
	}()
	client, _, err := Connect(ca, "srv", testContexts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrAborted) {
		t.Fatalf("server got %v, want ErrAborted", err)
	}
}

// TestConformanceIsodeClientToEstelleServer cross-connects the hand-coded
// stack with the Estelle-generated session+presentation stack — the paper's
// conformance argument for running MCAM over two different stacks.
func TestConformanceIsodeClientToEstelleServer(t *testing.T) {
	ca, cb := transport.Pipe(0)

	// Estelle side: presentation over session over the real pipe.
	rt := estelle.NewRuntime(estelle.WithStrict())
	pres, err := rt.AddSystem(estelle.AsSystem(presentation.ProtocolMachineDef()), "pres")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := rt.AddSystem(estelle.AsSystem(session.ProtocolMachineDef()), "sess")
	if err != nil {
		t.Fatal(err)
	}
	prov, err := rt.AddSystem(estelle.AsSystem(transport.ConnProviderDef(cb, true, nil)), "prov")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(pres.IP("S"), sess.IP("S")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(sess.IP("T"), prov.IP("U")); err != nil {
		t.Fatal(err)
	}
	var events []*estelle.Interaction
	pres.IP("P").SetSink(func(in *estelle.Interaction) {
		events = append(events, in)
		switch in.Name {
		case "PConInd":
			pres.IP("P").Inject("PConResp", true, []byte("est-welcome"))
		case "PDatInd":
			pres.IP("P").Inject("PDatReq", in.Int(0), append([]byte("echo:"), in.Bytes(1)...))
		}
	})
	s := estelle.NewScheduler(rt, estelle.MapPerSystem)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// Hand-coded side drives the association.
	client, ud, err := Connect(ca, "estelle-server", testContexts, []byte("hello-est"))
	if err != nil {
		t.Fatal(err)
	}
	if string(ud) != "est-welcome" {
		t.Errorf("CPA user data = %q", ud)
	}
	if err := client.Data(1, []byte("mcam-pdu")); err != nil {
		t.Fatal(err)
	}
	id, data, err := client.RecvData()
	if err != nil || id != 1 || string(data) != "echo:mcam-pdu" {
		t.Fatalf("echo = %d %q %v", id, data, err)
	}
}
