package session

import (
	"xmovie/internal/estelle"
	"xmovie/internal/transport"
)

// ServiceChannel is the session service boundary (S-primitives) offered to
// the presentation layer.
var ServiceChannel = &estelle.ChannelDef{
	Name:  "SessionService",
	RoleA: "user",
	RoleB: "provider",
	ByRole: map[string][]estelle.MsgDef{
		"user": {
			{Name: "SConReq", Params: []estelle.ParamDef{
				{Name: "calledAddr", Type: "string"},
				{Name: "userData", Type: "octetstring"},
			}},
			{Name: "SConResp", Params: []estelle.ParamDef{
				{Name: "accept", Type: "boolean"},
				{Name: "userData", Type: "octetstring"},
			}},
			{Name: "SDatReq", Params: []estelle.ParamDef{{Name: "data", Type: "octetstring"}}},
			{Name: "SRelReq", Params: []estelle.ParamDef{{Name: "userData", Type: "octetstring"}}},
			{Name: "SRelResp"},
			{Name: "SAbortReq"},
		},
		"provider": {
			{Name: "SConInd", Params: []estelle.ParamDef{
				{Name: "callingAddr", Type: "string"},
				{Name: "userData", Type: "octetstring"},
			}},
			{Name: "SConCnf", Params: []estelle.ParamDef{
				{Name: "accepted", Type: "boolean"},
				{Name: "userData", Type: "octetstring"},
			}},
			{Name: "SDatInd", Params: []estelle.ParamDef{{Name: "data", Type: "octetstring"}}},
			{Name: "SRelInd", Params: []estelle.ParamDef{{Name: "userData", Type: "octetstring"}}},
			{Name: "SRelCnf"},
			{Name: "SAbortInd"},
		},
	},
}

// machine carries the per-connection variables of the protocol machine.
type machine struct {
	selector string
	// releasing marks the side that sent FN and awaits DN.
	releasing bool
}

// sendSPDU emits an SPDU as transport user data.
func sendSPDU(ctx *estelle.Ctx, s *SPDU) {
	ctx.Output("T", "TDatReq", s.Encode(nil))
}

// parseSPDU decodes inbound transport data; decode failures abort the
// session (protocol error), matching the kernel's error handling.
func parseSPDU(ctx *estelle.Ctx) *SPDU {
	s, err := Parse(ctx.Msg.Bytes(0))
	if err != nil {
		ctx.Output("S", "SAbortInd")
		ctx.Output("T", "TDisReq")
		ctx.ToState("Closed")
		return nil
	}
	return s
}

// spduIs returns a provided-guard matching inbound DT data whose SPDU type
// is t. The head interaction must be a TDatInd.
func spduIs(t SPDUType) func(*estelle.Ctx) bool {
	return func(ctx *estelle.Ctx) bool {
		b := ctx.Msg.Bytes(0)
		return len(b) > 0 && SPDUType(b[0]) == t
	}
}

// ProtocolMachineDef returns the Estelle module definition of one session
// connection's protocol machine. Upper IP "S" (role provider) speaks
// ServiceChannel; lower IP "T" (role user) speaks transport.ServiceChannel.
//
// State names follow the ISO 8327 state table loosely:
// Idle, WaitTC (awaiting transport), WaitAC (sent CN), WaitUser (got CN),
// Connected, WaitDN (sent FN), WaitRelResp (got FN), Closed.
//
// It is one def, compiled once and shared by every association; callers
// must not modify it.
func ProtocolMachineDef() *estelle.ModuleDef { return protocolMachine }

var protocolMachine = estelle.MustCompile(&estelle.ModuleDef{
	Name: "SessionPM",
	Attr: estelle.Process,
	IPs: []estelle.IPDef{
		{Name: "S", Channel: ServiceChannel, Role: "provider"},
		{Name: "T", Channel: transport.ServiceChannel, Role: "user"},
	},
	States: []string{"Idle", "WaitTC", "WaitAC", "WaitUser", "Connected", "WaitDN", "WaitRelResp", "Closed"},
	Init: func(ctx *estelle.Ctx) {
		ctx.SetBody(&machine{})
	},
	Trans: []estelle.Trans{
		// --- Connection establishment, calling side.
		{
			Name: "s-conreq", From: []string{"Idle"}, When: estelle.On("S", "SConReq"), To: "WaitTC",
			Action: func(ctx *estelle.Ctx) {
				m := ctx.Body().(*machine)
				m.selector = ctx.Msg.Str(0)
				ctx.Output("T", "TConReq", m.selector)
				// User data rides along until the CN can be sent.
				ctx.SetVar("pendingUD", append([]byte(nil), ctx.Msg.Bytes(1)...))
			},
		},
		{
			Name: "t-concnf", From: []string{"WaitTC"}, When: estelle.On("T", "TConCnf"), To: "WaitAC",
			Action: func(ctx *estelle.Ctx) {
				m := ctx.Body().(*machine)
				ud, _ := ctx.Var("pendingUD").([]byte)
				cn := (&SPDU{Type: SPDUConnect}).
					With(PICalledSelector, []byte(m.selector)).
					With(PIUserData, ud)
				sendSPDU(ctx, cn)
			},
		},
		{
			Name: "ac", From: []string{"WaitAC"}, When: estelle.On("T", "TDatInd"),
			Provided: spduIs(SPDUAccept), To: "Connected",
			Action: func(ctx *estelle.Ctx) {
				s := parseSPDU(ctx)
				if s == nil {
					return
				}
				ctx.Output("S", "SConCnf", true, s.UserData())
			},
		},
		{
			Name: "rf", From: []string{"WaitAC"}, When: estelle.On("T", "TDatInd"),
			Provided: spduIs(SPDURefuse), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				s := parseSPDU(ctx)
				if s == nil {
					return
				}
				ctx.Output("S", "SConCnf", false, s.UserData())
				ctx.Output("T", "TDisReq")
			},
		},
		// --- Connection establishment, called side.
		{
			Name: "t-conind", From: []string{"Idle"}, When: estelle.On("T", "TConInd"), To: "WaitUser",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("T", "TConResp") // transport up; await CN
			},
		},
		{
			Name: "cn", From: []string{"WaitUser"}, When: estelle.On("T", "TDatInd"),
			Provided: spduIs(SPDUConnect),
			Action: func(ctx *estelle.Ctx) {
				s := parseSPDU(ctx)
				if s == nil {
					return
				}
				sel, _ := s.Get(PICalledSelector)
				ctx.Output("S", "SConInd", string(sel), s.UserData())
			},
		},
		{
			Name: "s-conresp-accept", From: []string{"WaitUser"}, When: estelle.On("S", "SConResp"),
			Provided: func(ctx *estelle.Ctx) bool { return ctx.Msg.Bool(0) },
			To:       "Connected",
			Action: func(ctx *estelle.Ctx) {
				ac := (&SPDU{Type: SPDUAccept}).With(PIUserData, ctx.Msg.Bytes(1))
				sendSPDU(ctx, ac)
			},
		},
		{
			Name: "s-conresp-refuse", From: []string{"WaitUser"}, When: estelle.On("S", "SConResp"),
			To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				rf := (&SPDU{Type: SPDURefuse}).With(PIUserData, ctx.Msg.Bytes(1))
				sendSPDU(ctx, rf)
				ctx.Output("T", "TDisReq")
			},
		},
		// --- Data transfer.
		{
			// In WaitRelResp the FN has arrived but the release is not yet
			// answered: data the user sent before SRelResp still goes out,
			// as DT ahead of the DN (see DESIGN.md).
			Name: "s-datreq", From: []string{"Connected", "WaitDN", "WaitRelResp"}, When: estelle.On("S", "SDatReq"),
			Action: func(ctx *estelle.Ctx) {
				dt := (&SPDU{Type: SPDUData}).With(PIUserData, ctx.Msg.Bytes(0))
				sendSPDU(ctx, dt)
			},
		},
		{
			Name: "dt", From: []string{"Connected", "WaitDN", "WaitRelResp"}, When: estelle.On("T", "TDatInd"),
			Provided: spduIs(SPDUData),
			Action: func(ctx *estelle.Ctx) {
				s := parseSPDU(ctx)
				if s == nil {
					return
				}
				ctx.Output("S", "SDatInd", s.UserData())
			},
		},
		// --- Orderly release.
		{
			Name: "s-relreq", From: []string{"Connected"}, When: estelle.On("S", "SRelReq"), To: "WaitDN",
			Action: func(ctx *estelle.Ctx) {
				ctx.Body().(*machine).releasing = true
				fn := (&SPDU{Type: SPDUFinish}).With(PIUserData, ctx.Msg.Bytes(0))
				sendSPDU(ctx, fn)
			},
		},
		{
			Name: "fn", From: []string{"Connected"}, When: estelle.On("T", "TDatInd"),
			Provided: spduIs(SPDUFinish), To: "WaitRelResp",
			Action: func(ctx *estelle.Ctx) {
				s := parseSPDU(ctx)
				if s == nil {
					return
				}
				ctx.Output("S", "SRelInd", s.UserData())
			},
		},
		{
			Name: "s-relresp", From: []string{"WaitRelResp"}, When: estelle.On("S", "SRelResp"), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				sendSPDU(ctx, &SPDU{Type: SPDUDisconnect})
			},
		},
		{
			Name: "dn", From: []string{"WaitDN"}, When: estelle.On("T", "TDatInd"),
			Provided: spduIs(SPDUDisconnect), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("S", "SRelCnf")
				ctx.Output("T", "TDisReq")
			},
		},
		// --- Abort paths.
		{
			Name: "s-abort", When: estelle.On("S", "SAbortReq"), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				sendSPDU(ctx, &SPDU{Type: SPDUAbort})
				ctx.Output("T", "TDisReq")
			},
		},
		{
			Name: "ab", When: estelle.On("T", "TDatInd"),
			Provided: spduIs(SPDUAbort), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("S", "SAbortInd")
			},
		},
		{
			Name: "t-disind", When: estelle.On("T", "TDisInd"), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				if !ctx.Body().(*machine).releasing {
					ctx.Output("S", "SAbortInd")
				}
			},
		},
		// Drain unexpected inputs in Closed so queues cannot wedge.
		{
			Name: "closed-drain-t", From: []string{"Closed"}, When: estelle.On("T", "TDatInd"),
			Priority: 10,
			Action:   func(*estelle.Ctx) {},
		},
		{
			Name: "closed-drain-s", From: []string{"Closed"}, When: estelle.On("S", "SDatReq"),
			Priority: 10,
			Action:   func(*estelle.Ctx) {},
		},
	},
})
