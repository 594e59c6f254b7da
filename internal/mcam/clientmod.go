package mcam

import (
	"xmovie/internal/estelle"
	"xmovie/internal/presentation"
)

// UserChannel is the application interface of Fig. 3: the channel between
// the application (or the generated UI of refs [10],[13]) and the MCA.
// Typed PDU structs travel as interaction arguments.
var UserChannel = &estelle.ChannelDef{
	Name:  "MCAMUser",
	RoleA: "user",
	RoleB: "provider",
	ByRole: map[string][]estelle.MsgDef{
		"user": {
			{Name: "AConnectReq", Params: []estelle.ParamDef{{Name: "calledSel", Type: "string"}}},
			{Name: "ARequest", Params: []estelle.ParamDef{{Name: "request", Type: "Request"}}},
			{Name: "AReleaseReq"},
		},
		"provider": {
			{Name: "AConnectCnf", Params: []estelle.ParamDef{
				{Name: "ok", Type: "boolean"},
				{Name: "diagnostic", Type: "string"},
			}},
			{Name: "AResponse", Params: []estelle.ParamDef{{Name: "response", Type: "Response"}}},
			{Name: "AEvent", Params: []estelle.ParamDef{{Name: "event", Type: "Event"}}},
			{Name: "AReleaseCnf"},
			{Name: "AAbortInd"},
		},
	},
}

// proposedContexts is what the client MCA offers at connect time.
func proposedContexts() []presentation.Context {
	return []presentation.Context{{ID: ContextID, AbstractSyntax: AbstractSyntax}}
}

// ClientModuleDef returns the client-side Movie Control Agent: the Estelle
// module mapping the application interface onto MCAM PDUs over the
// presentation service (the "MCA" of Fig. 3, client side).
// It is one def, compiled once and shared by every association; callers
// must not modify it.
func ClientModuleDef() *estelle.ModuleDef { return clientModule }

var clientModule = estelle.MustCompile(&estelle.ModuleDef{
	Name: "MCAClient",
	Attr: estelle.Process,
	IPs: []estelle.IPDef{
		{Name: "U", Channel: UserChannel, Role: "provider"},
		{Name: "P", Channel: presentation.ServiceChannel, Role: "user"},
	},
	States: []string{"Closed", "Connecting", "Ready", "Pending", "Releasing", "Dead"},
	Trans: []estelle.Trans{
		{
			Name: "connect", From: []string{"Closed"}, When: estelle.On("U", "AConnectReq"),
			To: "Connecting",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("P", "PConReq", ctx.Msg.Str(0), proposedContexts(), []byte(nil))
			},
		},
		{
			Name: "concnf", From: []string{"Connecting"}, When: estelle.On("P", "PConCnf"),
			Action: func(ctx *estelle.Ctx) {
				if ctx.Msg.Bool(0) {
					ctx.Output("U", "AConnectCnf", true, "")
					ctx.ToState("Ready")
					return
				}
				ctx.Output("U", "AConnectCnf", false, string(ctx.Msg.Bytes(1)))
				ctx.ToState("Closed")
			},
		},
		{
			Name: "request", From: []string{"Ready"}, When: estelle.On("U", "ARequest"),
			To: "Pending",
			Action: func(ctx *estelle.Ctx) {
				req, _ := ctx.Msg.Arg(0).(*Request)
				if req == nil {
					ctx.Output("U", "AResponse", &Response{Status: StatusProtocolError,
						Diagnostic: "nil request"})
					ctx.ToState("Ready")
					return
				}
				enc, err := (&PDU{Request: req}).Encode()
				if err != nil {
					ctx.Output("U", "AResponse", &Response{InvokeID: req.InvokeID, Op: req.Op,
						Status: StatusProtocolError, Diagnostic: err.Error()})
					ctx.ToState("Ready")
					return
				}
				ctx.Output("P", "PDatReq", ContextID, enc)
			},
		},
		{
			Name: "data", From: []string{"Ready", "Pending"}, When: estelle.On("P", "PDatInd"),
			Action: func(ctx *estelle.Ctx) {
				pdu, err := Decode(ctx.Msg.Bytes(1))
				if err != nil {
					ctx.Output("P", "PAbortReq")
					ctx.Output("U", "AAbortInd")
					ctx.ToState("Dead")
					return
				}
				switch {
				case pdu.Event != nil:
					ctx.Output("U", "AEvent", pdu.Event)
				case pdu.Response != nil:
					ctx.Output("U", "AResponse", pdu.Response)
					ctx.ToState("Ready")
				default:
					// A request from the server is a protocol error on
					// the client side.
					ctx.Output("P", "PAbortReq")
					ctx.Output("U", "AAbortInd")
					ctx.ToState("Dead")
				}
			},
		},
		{
			Name: "release", From: []string{"Ready"}, When: estelle.On("U", "AReleaseReq"),
			To: "Releasing",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("P", "PRelReq", []byte(nil))
			},
		},
		{
			// Data racing our release request (typically a stream event
			// emitted while the FN was in flight) is still delivered as
			// an event; anything else is dropped. Without this the
			// PDatInd wedges the P queue ahead of PRelCnf and the
			// release never confirms.
			Name: "releasing-data", From: []string{"Releasing"}, When: estelle.On("P", "PDatInd"),
			Action: func(ctx *estelle.Ctx) {
				if pdu, err := Decode(ctx.Msg.Bytes(1)); err == nil && pdu.Event != nil {
					ctx.Output("U", "AEvent", pdu.Event)
				}
			},
		},
		{
			Name: "relcnf", From: []string{"Releasing"}, When: estelle.On("P", "PRelCnf"),
			To: "Dead",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("U", "AReleaseCnf")
			},
		},
		{
			// Server-initiated release: acknowledge and report up.
			Name: "relind", When: estelle.On("P", "PRelInd"), To: "Dead",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("P", "PRelResp")
				ctx.Output("U", "AAbortInd")
			},
		},
		{
			Name: "abort", When: estelle.On("P", "PAbortInd"), To: "Dead",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("U", "AAbortInd")
			},
		},
		// Drain stale inputs in Dead.
		{
			Name: "dead-drain-p", From: []string{"Dead"}, When: estelle.On("P", "PDatInd"),
			Priority: 10, Action: func(*estelle.Ctx) {},
		},
		{
			Name: "dead-drain-u", From: []string{"Dead"}, When: estelle.On("U", "ARequest"),
			Priority: 10,
			Action: func(ctx *estelle.Ctx) {
				req, _ := ctx.Msg.Arg(0).(*Request)
				resp := &Response{Status: StatusBadState, Diagnostic: "association closed"}
				if req != nil {
					resp.InvokeID = req.InvokeID
					resp.Op = req.Op
				}
				ctx.Output("U", "AResponse", resp)
			},
		},
	},
})
