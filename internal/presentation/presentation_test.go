package presentation

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"xmovie/internal/estelle"
	"xmovie/internal/session"
	"xmovie/internal/transport"
)

func TestPPDURoundTrips(t *testing.T) {
	tests := []struct {
		name string
		pdu  PPDU
	}{
		{"cp", PPDU{CP: &CP{
			CallingSelector: "client-1",
			CalledSelector:  "mcam-server",
			Contexts: []Context{
				{ID: 1, AbstractSyntax: "mcam-pci"},
				{ID: 3, AbstractSyntax: "acse"},
			},
			UserData: []byte{1, 2, 3},
		}}},
		{"cp minimal", PPDU{CP: &CP{Contexts: []Context{{ID: 1, AbstractSyntax: "x"}}}}},
		{"cpa", PPDU{CPA: &CPA{
			Results:  []Result{{ID: 1, Accepted: true}, {ID: 3, Accepted: false}},
			UserData: []byte("welcome"),
		}}},
		{"cpr", PPDU{CPR: &CPR{Reason: "address unknown"}}},
		{"td", PPDU{TD: &TD{ContextID: 1, Data: bytes.Repeat([]byte("d"), 5000)}}},
		{"arp", PPDU{ARP: &ARP{Reason: "protocol error"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			enc, err := tt.pdu.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, &tt.pdu) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, &tt.pdu)
			}
		})
	}
}

func TestEmptyPPDURejected(t *testing.T) {
	if _, err := (&PPDU{}).Encode(); err == nil {
		t.Error("empty PPDU encoded")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte{0x00, 0x01, 0x02}); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty decoded")
	}
}

func TestTDRoundTripQuick(t *testing.T) {
	f := func(id int32, data []byte) bool {
		pdu := PPDU{TD: &TD{ContextID: int64(id), Data: data}}
		enc, err := pdu.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil || got.TD == nil {
			return false
		}
		if got.TD.ContextID != int64(id) {
			return false
		}
		// nil and empty both decode to empty.
		return bytes.Equal(got.TD.Data, data) || (len(data) == 0 && len(got.TD.Data) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// stackHarness wires user <-> presentation <-> session <-> pipe <-> session
// <-> presentation <-> user: the paper's §5.1 "two protocol stacks connected
// by a simulated transport layer pipe".
type stackHarness struct {
	rt         *estelle.Runtime
	initP      *estelle.Instance
	respP      *estelle.Instance
	initEvents []*estelle.Interaction
	respEvents []*estelle.Interaction
	// fired lists every transition fired, in order.
	fired []estelle.TraceEvent
}

func newStackHarness(t *testing.T) *stackHarness {
	t.Helper()
	h := &stackHarness{}
	rt := estelle.NewRuntime(estelle.WithStrict(),
		estelle.WithTrace(func(ev estelle.TraceEvent) { h.fired = append(h.fired, ev) }))
	h.rt = rt
	mustAdd := func(def *estelle.ModuleDef, name string) *estelle.Instance {
		inst, err := rt.AddSystem(def, name)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	h.initP = mustAdd(estelle.AsSystem(ProtocolMachineDef()), "initPres")
	h.respP = mustAdd(estelle.AsSystem(ProtocolMachineDef()), "respPres")
	initS := mustAdd(estelle.AsSystem(session.ProtocolMachineDef()), "initSess")
	respS := mustAdd(estelle.AsSystem(session.ProtocolMachineDef()), "respSess")
	pipe := mustAdd(estelle.AsSystem(transport.PipeProviderDef()), "pipe")
	for _, pair := range [][2]*estelle.IP{
		{h.initP.IP("S"), initS.IP("S")},
		{h.respP.IP("S"), respS.IP("S")},
		{initS.IP("T"), pipe.IP("A")},
		{respS.IP("T"), pipe.IP("B")},
	} {
		if err := rt.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	h.initP.IP("P").SetSink(func(in *estelle.Interaction) { h.initEvents = append(h.initEvents, in) })
	h.respP.IP("P").SetSink(func(in *estelle.Interaction) { h.respEvents = append(h.respEvents, in) })
	return h
}

func (h *stackHarness) run(t *testing.T) {
	t.Helper()
	if _, err := estelle.NewStepper(h.rt).RunUntilIdle(1000000); err != nil {
		t.Fatal(err)
	}
}

func TestFullStackConnectDataRelease(t *testing.T) {
	h := newStackHarness(t)
	contexts := []Context{{ID: 1, AbstractSyntax: "mcam-pci"}}
	h.initP.IP("P").Inject("PConReq", "server", contexts, []byte("app-hello"))
	h.run(t)

	if len(h.respEvents) != 1 || h.respEvents[0].Name != "PConInd" {
		t.Fatalf("responder events = %v", h.respEvents)
	}
	ind := h.respEvents[0]
	gotCtx, _ := ind.Arg(1).([]Context)
	if len(gotCtx) != 1 || gotCtx[0].AbstractSyntax != "mcam-pci" {
		t.Errorf("contexts = %v", gotCtx)
	}
	if !bytes.Equal(ind.Bytes(2), []byte("app-hello")) {
		t.Errorf("user data = %q", ind.Bytes(2))
	}

	h.respP.IP("P").Inject("PConResp", true, []byte("app-welcome"))
	h.run(t)
	last := h.initEvents[len(h.initEvents)-1]
	if last.Name != "PConCnf" || !last.Bool(0) || !bytes.Equal(last.Bytes(1), []byte("app-welcome")) {
		t.Fatalf("PConCnf = %+v", last)
	}

	// Data on the negotiated context.
	h.initP.IP("P").Inject("PDatReq", int64(1), []byte("movie-op"))
	h.run(t)
	last = h.respEvents[len(h.respEvents)-1]
	if last.Name != "PDatInd" || last.Int(0) != 1 || !bytes.Equal(last.Bytes(1), []byte("movie-op")) {
		t.Fatalf("PDatInd = %+v", last)
	}

	// Release.
	h.initP.IP("P").Inject("PRelReq", []byte(nil))
	h.run(t)
	if last = h.respEvents[len(h.respEvents)-1]; last.Name != "PRelInd" {
		t.Fatalf("expected PRelInd, got %v", last.Name)
	}
	h.respP.IP("P").Inject("PRelResp")
	h.run(t)
	if last = h.initEvents[len(h.initEvents)-1]; last.Name != "PRelCnf" {
		t.Fatalf("expected PRelCnf, got %v", last.Name)
	}
	if h.initP.State() != "Closed" || h.respP.State() != "Closed" {
		t.Errorf("states: %s / %s", h.initP.State(), h.respP.State())
	}
}

// TestReleaseCollisionDropsLateData: user data the responder sends after
// the release indication (an MCA stream event racing the peer's FN) is
// discarded by relresp-drop-p, so the release still completes and the
// initiator sees no data after asking to release.
func TestReleaseCollisionDropsLateData(t *testing.T) {
	h := newStackHarness(t)
	h.initP.IP("P").Inject("PConReq", "server", []Context{{ID: 1, AbstractSyntax: "mcam-pci"}}, []byte(nil))
	h.run(t)
	h.respP.IP("P").Inject("PConResp", true, []byte(nil))
	h.run(t)
	released := len(h.initEvents)
	h.initP.IP("P").Inject("PRelReq", []byte(nil))
	h.run(t)
	if last := h.respEvents[len(h.respEvents)-1]; last.Name != "PRelInd" {
		t.Fatalf("expected PRelInd, got %v", last.Name)
	}
	h.respP.IP("P").Inject("PDatReq", int64(1), []byte("late-event"))
	h.respP.IP("P").Inject("PRelResp")
	h.run(t)

	dropped := false
	for _, ev := range h.fired {
		if ev.Transition == "relresp-drop-p" {
			if ev.Path != h.respP.Path() {
				t.Errorf("relresp-drop-p fired on %s, want %s", ev.Path, h.respP.Path())
			}
			dropped = true
		}
	}
	if !dropped {
		t.Error("relresp-drop-p never fired")
	}
	after := h.initEvents[released:]
	if len(after) != 1 || after[0].Name != "PRelCnf" {
		names := make([]string, len(after))
		for i, in := range after {
			names[i] = in.Name
		}
		t.Fatalf("initiator events after PRelReq = %v, want [PRelCnf]", names)
	}
	if h.initP.State() != "Closed" || h.respP.State() != "Closed" {
		t.Errorf("states: %s / %s", h.initP.State(), h.respP.State())
	}
}

func TestFullStackRefuse(t *testing.T) {
	h := newStackHarness(t)
	h.initP.IP("P").Inject("PConReq", "server", []Context{{ID: 1, AbstractSyntax: "x"}}, []byte(nil))
	h.run(t)
	h.respP.IP("P").Inject("PConResp", false, []byte("no capacity"))
	h.run(t)
	last := h.initEvents[len(h.initEvents)-1]
	if last.Name != "PConCnf" || last.Bool(0) {
		t.Fatalf("PConCnf = %+v", last)
	}
	if h.initP.State() != "Closed" {
		t.Errorf("initiator state = %s", h.initP.State())
	}
}

func TestDataOnUnnegotiatedContextAborts(t *testing.T) {
	h := newStackHarness(t)
	h.initP.IP("P").Inject("PConReq", "server", []Context{{ID: 1, AbstractSyntax: "x"}}, []byte(nil))
	h.run(t)
	h.respP.IP("P").Inject("PConResp", true, []byte(nil))
	h.run(t)
	h.initP.IP("P").Inject("PDatReq", int64(99), []byte("bad"))
	h.run(t)
	last := h.initEvents[len(h.initEvents)-1]
	if last.Name != "PAbortInd" {
		t.Fatalf("expected PAbortInd, got %v", last.Name)
	}
	// The remote side must also learn of the abort.
	rlast := h.respEvents[len(h.respEvents)-1]
	if rlast.Name != "PAbortInd" {
		t.Fatalf("responder got %v, want PAbortInd", rlast.Name)
	}
}

func TestManyDataUnitsInOrder(t *testing.T) {
	h := newStackHarness(t)
	h.initP.IP("P").Inject("PConReq", "server", []Context{{ID: 7, AbstractSyntax: "bulk"}}, []byte(nil))
	h.run(t)
	h.respP.IP("P").Inject("PConResp", true, []byte(nil))
	h.run(t)
	const n = 300
	for i := 0; i < n; i++ {
		h.initP.IP("P").Inject("PDatReq", int64(7), []byte{byte(i), byte(i >> 8)})
	}
	h.run(t)
	seen := 0
	for _, in := range h.respEvents {
		if in.Name == "PDatInd" {
			b := in.Bytes(1)
			if b[0] != byte(seen) || b[1] != byte(seen>>8) {
				t.Fatalf("data unit %d out of order", seen)
			}
			seen++
		}
	}
	if seen != n {
		t.Errorf("delivered %d of %d", seen, n)
	}
}
