package presentation

import (
	"xmovie/internal/estelle"
	"xmovie/internal/session"
)

// ServiceChannel is the presentation service boundary (P-primitives) the
// application layer (MCAM) sits on. Contexts travel as []Context values.
var ServiceChannel = &estelle.ChannelDef{
	Name:  "PresentationService",
	RoleA: "user",
	RoleB: "provider",
	ByRole: map[string][]estelle.MsgDef{
		"user": {
			{Name: "PConReq", Params: []estelle.ParamDef{
				{Name: "calledSel", Type: "string"},
				{Name: "contexts", Type: "contextlist"},
				{Name: "userData", Type: "octetstring"},
			}},
			{Name: "PConResp", Params: []estelle.ParamDef{
				{Name: "accept", Type: "boolean"},
				{Name: "userData", Type: "octetstring"},
			}},
			{Name: "PDatReq", Params: []estelle.ParamDef{
				{Name: "contextID", Type: "integer"},
				{Name: "data", Type: "octetstring"},
			}},
			{Name: "PRelReq", Params: []estelle.ParamDef{{Name: "userData", Type: "octetstring"}}},
			{Name: "PRelResp"},
			{Name: "PAbortReq"},
		},
		"provider": {
			{Name: "PConInd", Params: []estelle.ParamDef{
				{Name: "callingSel", Type: "string"},
				{Name: "contexts", Type: "contextlist"},
				{Name: "userData", Type: "octetstring"},
			}},
			{Name: "PConCnf", Params: []estelle.ParamDef{
				{Name: "accepted", Type: "boolean"},
				{Name: "userData", Type: "octetstring"},
			}},
			{Name: "PDatInd", Params: []estelle.ParamDef{
				{Name: "contextID", Type: "integer"},
				{Name: "data", Type: "octetstring"},
			}},
			{Name: "PRelInd", Params: []estelle.ParamDef{{Name: "userData", Type: "octetstring"}}},
			{Name: "PRelCnf"},
			{Name: "PAbortInd"},
		},
	},
}

// machine holds one presentation connection's negotiated state.
type machine struct {
	// proposed holds the contexts offered in CP, kept until CPA.
	proposed []Context
	// contexts are the negotiated (accepted) context IDs.
	contexts map[int64]string
}

func (m *machine) acceptAll() []Result {
	out := make([]Result, len(m.proposed))
	if m.contexts == nil {
		m.contexts = make(map[int64]string, len(m.proposed))
	}
	for i, c := range m.proposed {
		out[i] = Result{ID: c.ID, Accepted: true}
		m.contexts[c.ID] = c.AbstractSyntax
	}
	return out
}

// sendPPDU transmits a PPDU as session user data.
func sendPPDU(ctx *estelle.Ctx, p *PPDU) {
	enc, err := p.Encode()
	if err != nil {
		// Encoding our own PDU can only fail on a programming error.
		panic(err)
	}
	ctx.Output("S", "SDatReq", enc)
}

// abort tears the connection down after a protocol error.
func abort(ctx *estelle.Ctx, reason string) {
	enc, err := (&PPDU{ARP: &ARP{Reason: reason}}).Encode()
	if err == nil {
		ctx.Output("S", "SDatReq", enc)
	}
	ctx.Output("S", "SAbortReq")
	ctx.Output("P", "PAbortInd")
	ctx.ToState("Closed")
}

// decodePPDU parses inbound session data, aborting on garbage.
func decodePPDU(ctx *estelle.Ctx) *PPDU {
	p, err := Decode(ctx.Msg.Bytes(0))
	if err != nil {
		abort(ctx, "malformed PPDU")
		return nil
	}
	return p
}

// ProtocolMachineDef returns the Estelle module for one presentation
// connection. Upper IP "P" (role provider), lower IP "S" (role user,
// session service). It is one def, compiled once and shared by every
// association; callers must not modify it.
func ProtocolMachineDef() *estelle.ModuleDef { return protocolMachine }

var protocolMachine = estelle.MustCompile(&estelle.ModuleDef{
	Name: "PresentationPM",
	Attr: estelle.Process,
	IPs: []estelle.IPDef{
		{Name: "P", Channel: ServiceChannel, Role: "provider"},
		{Name: "S", Channel: session.ServiceChannel, Role: "user"},
	},
	States: []string{"Idle", "WaitCPA", "WaitUser", "Connected", "WaitRel", "WaitRelResp", "Closed"},
	Init: func(ctx *estelle.Ctx) {
		ctx.SetBody(&machine{})
	},
	Trans: []estelle.Trans{
		// --- Establishment, calling side.
		{
			Name: "p-conreq", From: []string{"Idle"}, When: estelle.On("P", "PConReq"), To: "WaitCPA",
			Action: func(ctx *estelle.Ctx) {
				m := ctx.Body().(*machine)
				contexts, _ := ctx.Msg.Arg(1).([]Context)
				m.proposed = contexts
				cp := &CP{
					CalledSelector: ctx.Msg.Str(0),
					Contexts:       contexts,
					UserData:       ctx.Msg.Bytes(2),
				}
				enc, err := (&PPDU{CP: cp}).Encode()
				if err != nil {
					panic(err)
				}
				// The CP rides as session connect user data.
				ctx.Output("S", "SConReq", ctx.Msg.Str(0), enc)
			},
		},
		{
			Name: "s-concnf", From: []string{"WaitCPA"}, When: estelle.On("S", "SConCnf"),
			Action: func(ctx *estelle.Ctx) {
				m := ctx.Body().(*machine)
				if !ctx.Msg.Bool(0) {
					ctx.Output("P", "PConCnf", false, ctx.Msg.Bytes(1))
					ctx.ToState("Closed")
					return
				}
				p, err := Decode(ctx.Msg.Bytes(1))
				if err != nil || (p.CPA == nil && p.CPR == nil) {
					abort(ctx, "expected CPA/CPR")
					return
				}
				if p.CPR != nil {
					ctx.Output("P", "PConCnf", false, []byte(p.CPR.Reason))
					ctx.ToState("Closed")
					return
				}
				if m.contexts == nil {
					m.contexts = make(map[int64]string)
				}
				for _, r := range p.CPA.Results {
					if r.Accepted {
						for _, c := range m.proposed {
							if c.ID == r.ID {
								m.contexts[c.ID] = c.AbstractSyntax
							}
						}
					}
				}
				ctx.Output("P", "PConCnf", true, p.CPA.UserData)
				ctx.ToState("Connected")
			},
		},
		// --- Establishment, called side.
		{
			Name: "s-conind", From: []string{"Idle"}, When: estelle.On("S", "SConInd"), To: "WaitUser",
			Action: func(ctx *estelle.Ctx) {
				m := ctx.Body().(*machine)
				p, err := Decode(ctx.Msg.Bytes(1))
				if err != nil || p.CP == nil {
					abort(ctx, "expected CP")
					return
				}
				m.proposed = p.CP.Contexts
				ctx.Output("P", "PConInd", p.CP.CallingSelector, p.CP.Contexts, p.CP.UserData)
			},
		},
		{
			Name: "p-conresp-accept", From: []string{"WaitUser"}, When: estelle.On("P", "PConResp"),
			Provided: func(ctx *estelle.Ctx) bool { return ctx.Msg.Bool(0) },
			To:       "Connected",
			Action: func(ctx *estelle.Ctx) {
				m := ctx.Body().(*machine)
				cpa := &CPA{Results: m.acceptAll(), UserData: ctx.Msg.Bytes(1)}
				enc, err := (&PPDU{CPA: cpa}).Encode()
				if err != nil {
					panic(err)
				}
				ctx.Output("S", "SConResp", true, enc)
			},
		},
		{
			Name: "p-conresp-refuse", From: []string{"WaitUser"}, When: estelle.On("P", "PConResp"),
			To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				enc, err := (&PPDU{CPR: &CPR{Reason: string(ctx.Msg.Bytes(1))}}).Encode()
				if err != nil {
					panic(err)
				}
				ctx.Output("S", "SConResp", false, enc)
			},
		},
		// --- Data transfer.
		{
			Name: "p-datreq", From: []string{"Connected", "WaitRel"}, When: estelle.On("P", "PDatReq"),
			Action: func(ctx *estelle.Ctx) {
				m := ctx.Body().(*machine)
				id := ctx.Msg.Int(0)
				if _, ok := m.contexts[id]; !ok {
					abort(ctx, "data on unnegotiated context")
					return
				}
				sendPPDU(ctx, &PPDU{TD: &TD{ContextID: id, Data: ctx.Msg.Bytes(1)}})
			},
		},
		{
			Name: "s-datind", From: []string{"Connected", "WaitRel", "WaitRelResp"}, When: estelle.On("S", "SDatInd"),
			Action: func(ctx *estelle.Ctx) {
				p := decodePPDU(ctx)
				if p == nil {
					return
				}
				switch {
				case p.TD != nil:
					ctx.Output("P", "PDatInd", p.TD.ContextID, p.TD.Data)
				case p.ARP != nil:
					ctx.Output("P", "PAbortInd")
					ctx.ToState("Closed")
				default:
					abort(ctx, "unexpected PPDU in data phase")
				}
			},
		},
		// --- Orderly release (passes through to session).
		{
			Name: "p-relreq", From: []string{"Connected"}, When: estelle.On("P", "PRelReq"), To: "WaitRel",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("S", "SRelReq", ctx.Msg.Bytes(0))
			},
		},
		{
			Name: "s-relind", From: []string{"Connected"}, When: estelle.On("S", "SRelInd"), To: "WaitRelResp",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("P", "PRelInd", ctx.Msg.Bytes(0))
			},
		},
		{
			Name: "p-relresp", From: []string{"WaitRelResp"}, When: estelle.On("P", "PRelResp"), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("S", "SRelResp")
			},
		},
		// Release collision: user data racing an already-indicated
		// release (an MCA stream event emitted while the peer's FN was
		// in flight) is discarded. Without this, the stale PDatReq
		// wedges the queue ahead of PRelResp and the release never
		// completes.
		{
			Name: "relresp-drop-p", From: []string{"WaitRelResp"}, When: estelle.On("P", "PDatReq"),
			Action: func(*estelle.Ctx) {},
		},
		{
			Name: "s-relcnf", From: []string{"WaitRel"}, When: estelle.On("S", "SRelCnf"), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("P", "PRelCnf")
			},
		},
		// --- Aborts.
		{
			Name: "p-abortreq", When: estelle.On("P", "PAbortReq"), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("S", "SAbortReq")
			},
		},
		{
			Name: "s-abortind", When: estelle.On("S", "SAbortInd"), To: "Closed",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("P", "PAbortInd")
			},
		},
		// Drain in Closed.
		{
			Name: "closed-drain-s", From: []string{"Closed"}, When: estelle.On("S", "SDatInd"),
			Priority: 10, Action: func(*estelle.Ctx) {},
		},
		{
			Name: "closed-drain-p", From: []string{"Closed"}, When: estelle.On("P", "PDatReq"),
			Priority: 10, Action: func(*estelle.Ctx) {},
		},
	},
})
