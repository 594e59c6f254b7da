package session

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"xmovie/internal/estelle"
	"xmovie/internal/transport"
)

func TestSPDURoundTrip(t *testing.T) {
	s := (&SPDU{Type: SPDUConnect}).
		With(PICalledSelector, []byte("mcam")).
		With(PIUserData, []byte("payload"))
	enc := s.Encode(nil)
	got, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != SPDUConnect {
		t.Errorf("type = %v", got.Type)
	}
	if sel, ok := got.Get(PICalledSelector); !ok || string(sel) != "mcam" {
		t.Errorf("selector = %q, %v", sel, ok)
	}
	if !bytes.Equal(got.UserData(), []byte("payload")) {
		t.Errorf("user data = %q", got.UserData())
	}
}

func TestSPDURoundTripQuick(t *testing.T) {
	f := func(data []byte, pi byte) bool {
		s := (&SPDU{Type: SPDUData}).With(pi, data)
		got, err := Parse(s.Encode(nil))
		if err != nil {
			return false
		}
		v, ok := got.Get(pi)
		return ok && bytes.Equal(v, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSPDULargeUserData(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 70000)
	s := (&SPDU{Type: SPDUData}).With(PIUserData, big)
	got, err := Parse(s.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.UserData(), big) {
		t.Error("large user data corrupted")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"one byte", []byte{1}},
		{"truncated params", []byte{1, 5, 193}},
		{"trailing garbage", append((&SPDU{Type: SPDUData}).Encode(nil), 0xff)},
		{"indefinite length", []byte{1, 0x80}},
	}
	for _, tt := range tests {
		if _, err := Parse(tt.data); err == nil {
			t.Errorf("%s: accepted %x", tt.name, tt.data)
		}
	}
}

// FuzzParse: Parse never panics, and an SPDU it accepts encodes to bytes
// that parse back to the same SPDU. Its seeds, in testdata/fuzz/FuzzParse,
// are the SPDUs of the tests above.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		back, err := Parse(s.Encode(nil))
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("Parse(%x) = %+v; re-encoded it parses to %+v, %v", data, s, back, err)
		}
	})
}

// TestSPDUParseAllocs is the allocation guard of Parse on the data path: a
// DT SPDU is one object, its user data aliasing the input.
func TestSPDUParseAllocs(t *testing.T) {
	enc := (&SPDU{Type: SPDUData}).With(PIUserData, []byte("ppdu-bytes")).Encode(nil)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Parse(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("DT Parse allocates %.1f times, want 1", allocs)
	}
}

// sessionUser drives the S-service boundary from the environment via
// Inject/sinks, so the protocol machine is tested in isolation.
type harness struct {
	rt    *estelle.Runtime
	init  *estelle.Instance // initiator PM
	resp  *estelle.Instance // responder PM
	initS []*estelle.Interaction
	respS []*estelle.Interaction
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	rt := estelle.NewRuntime(estelle.WithStrict())
	h := &harness{rt: rt}
	var err error
	h.init, err = rt.AddSystem(SystemDef(estelle.DispatchTable), "initPM")
	if err != nil {
		t.Fatal(err)
	}
	h.resp, err = rt.AddSystem(SystemDef(estelle.DispatchTable), "respPM")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := rt.AddSystem(transport.SystemPipeProviderDef(), "pipe")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(h.init.IP("T"), pipe.IP("A")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(h.resp.IP("T"), pipe.IP("B")); err != nil {
		t.Fatal(err)
	}
	h.init.IP("S").SetSink(func(in *estelle.Interaction) { h.initS = append(h.initS, in) })
	h.resp.IP("S").SetSink(func(in *estelle.Interaction) { h.respS = append(h.respS, in) })
	return h
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	if _, err := estelle.NewStepper(h.rt).RunUntilIdle(100000); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) lastInit(t *testing.T) *estelle.Interaction {
	t.Helper()
	if len(h.initS) == 0 {
		t.Fatal("no initiator-side indication")
	}
	return h.initS[len(h.initS)-1]
}

func TestSessionConnectAcceptDataRelease(t *testing.T) {
	h := newHarness(t)
	h.init.IP("S").Inject("SConReq", "server-sel", []byte("hi"))
	h.run(t)

	// Responder got SConInd with connect data.
	if len(h.respS) != 1 || h.respS[0].Name != "SConInd" {
		t.Fatalf("responder indications = %v", h.respS)
	}
	if got := h.respS[0].Str(0); got != "server-sel" {
		t.Errorf("called selector = %q", got)
	}
	if !bytes.Equal(h.respS[0].Bytes(1), []byte("hi")) {
		t.Errorf("connect user data = %q", h.respS[0].Bytes(1))
	}

	// Accept.
	h.resp.IP("S").Inject("SConResp", true, []byte("welcome"))
	h.run(t)
	cnf := h.lastInit(t)
	if cnf.Name != "SConCnf" || !cnf.Bool(0) || !bytes.Equal(cnf.Bytes(1), []byte("welcome")) {
		t.Fatalf("SConCnf = %+v", cnf)
	}
	if h.init.State() != "Connected" || h.resp.State() != "Connected" {
		t.Fatalf("states: %s / %s", h.init.State(), h.resp.State())
	}

	// Data both ways.
	h.init.IP("S").Inject("SDatReq", []byte("question"))
	h.resp.IP("S").Inject("SDatReq", []byte("answer"))
	h.run(t)
	var respGot, initGot []byte
	for _, in := range h.respS {
		if in.Name == "SDatInd" {
			respGot = in.Bytes(0)
		}
	}
	for _, in := range h.initS {
		if in.Name == "SDatInd" {
			initGot = in.Bytes(0)
		}
	}
	if string(respGot) != "question" || string(initGot) != "answer" {
		t.Fatalf("data: resp=%q init=%q", respGot, initGot)
	}

	// Orderly release initiated by the caller.
	h.init.IP("S").Inject("SRelReq", []byte(nil))
	h.run(t)
	if last := h.respS[len(h.respS)-1]; last.Name != "SRelInd" {
		t.Fatalf("responder did not get SRelInd: %v", last.Name)
	}
	h.resp.IP("S").Inject("SRelResp")
	h.run(t)
	if last := h.lastInit(t); last.Name != "SRelCnf" {
		t.Fatalf("initiator did not get SRelCnf: %v", last.Name)
	}
	if h.init.State() != "Closed" || h.resp.State() != "Closed" {
		t.Errorf("states after release: %s / %s", h.init.State(), h.resp.State())
	}
}

func TestSessionRefuse(t *testing.T) {
	h := newHarness(t)
	h.init.IP("S").Inject("SConReq", "sel", []byte(nil))
	h.run(t)
	h.resp.IP("S").Inject("SConResp", false, []byte("busy"))
	h.run(t)
	cnf := h.lastInit(t)
	if cnf.Name != "SConCnf" || cnf.Bool(0) {
		t.Fatalf("SConCnf = %+v", cnf)
	}
	if !bytes.Equal(cnf.Bytes(1), []byte("busy")) {
		t.Errorf("refuse data = %q", cnf.Bytes(1))
	}
	if h.init.State() != "Closed" {
		t.Errorf("initiator state = %s", h.init.State())
	}
}

func TestSessionAbort(t *testing.T) {
	h := newHarness(t)
	h.init.IP("S").Inject("SConReq", "sel", []byte(nil))
	h.run(t)
	h.resp.IP("S").Inject("SConResp", true, []byte(nil))
	h.run(t)

	h.init.IP("S").Inject("SAbortReq")
	h.run(t)
	if last := h.respS[len(h.respS)-1]; last.Name != "SAbortInd" {
		t.Fatalf("responder got %v, want SAbortInd", last.Name)
	}
	if h.init.State() != "Closed" || h.resp.State() != "Closed" {
		t.Errorf("states after abort: %s / %s", h.init.State(), h.resp.State())
	}
}

func TestSessionGarbageAborts(t *testing.T) {
	h := newHarness(t)
	h.init.IP("S").Inject("SConReq", "sel", []byte(nil))
	h.run(t)
	h.resp.IP("S").Inject("SConResp", true, []byte(nil))
	h.run(t)
	// Deliver a malformed SPDU directly to the initiator PM: valid DT type
	// byte but truncated parameter block passes the guard, fails Parse.
	h.init.IP("T").Inject("TDatInd", []byte{byte(SPDUData), 5, 193})
	h.run(t)
	if last := h.lastInit(t); last.Name != "SAbortInd" {
		t.Fatalf("initiator got %v, want SAbortInd", last.Name)
	}
	if h.init.State() != "Closed" {
		t.Errorf("state = %s", h.init.State())
	}
}

func TestSessionDataBurst(t *testing.T) {
	h := newHarness(t)
	h.init.IP("S").Inject("SConReq", "sel", []byte(nil))
	h.run(t)
	h.resp.IP("S").Inject("SConResp", true, []byte(nil))
	h.run(t)
	const n = 200
	for i := 0; i < n; i++ {
		h.init.IP("S").Inject("SDatReq", []byte{byte(i), byte(i >> 8)})
	}
	h.run(t)
	var got int
	for _, in := range h.respS {
		if in.Name == "SDatInd" {
			if in.Bytes(0)[0] != byte(got) {
				t.Fatalf("data %d out of order", got)
			}
			got++
		}
	}
	if got != n {
		t.Errorf("delivered %d of %d", got, n)
	}
}
