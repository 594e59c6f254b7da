// Code generated by estgen from specification AlternatingBit. DO NOT EDIT.
//
// The generation pipeline is the paper's methodology: Estelle text ->
// parser -> this Go source -> the estelle runtime (its scheduler plays
// the role of the OSF/1 tasks and threads of the original system).
package abp

import (
	"time"

	"xmovie/internal/estelle"
)

var _ = time.Millisecond // delay clauses may be absent

// Variable accessors shared by the generated bodies.
func estVarInt(ctx *estelle.Ctx, name string) int64 {
	v, _ := ctx.Var(name).(int64)
	return v
}

func estVarBool(ctx *estelle.Ctx, name string) bool {
	v, _ := ctx.Var(name).(bool)
	return v
}

func estVarStr(ctx *estelle.Ctx, name string) string {
	switch v := ctx.Var(name).(type) {
	case string:
		return v
	case []byte:
		return string(v)
	default:
		return ""
	}
}

func estParamStr(ctx *estelle.Ctx, i int) string {
	switch v := ctx.Msg.Arg(i).(type) {
	case string:
		return v
	case []byte:
		return string(v)
	default:
		return ""
	}
}

// DataChannelChannel is channel DataChannel(user, provider) of the specification.
var DataChannelChannel = &estelle.ChannelDef{
	Name:  "DataChannel",
	RoleA: "user",
	RoleB: "provider",
	ByRole: map[string][]estelle.MsgDef{
		"provider": {
			{Name: "DeliverInd", Params: []estelle.ParamDef{{Name: "payload", Type: "octetstring"}}},
		},
		"user": {
			{Name: "SendReq", Params: []estelle.ParamDef{{Name: "payload", Type: "octetstring"}}},
		},
	},
}

// MediumChannelChannel is channel MediumChannel(side, net) of the specification.
var MediumChannelChannel = &estelle.ChannelDef{
	Name:  "MediumChannel",
	RoleA: "side",
	RoleB: "net",
	ByRole: map[string][]estelle.MsgDef{
		"net": {
			{Name: "FrameInd", Params: []estelle.ParamDef{{Name: "bit", Type: "integer"}, {Name: "payload", Type: "octetstring"}}},
			{Name: "AckInd", Params: []estelle.ParamDef{{Name: "bit", Type: "integer"}}},
		},
		"side": {
			{Name: "Frame", Params: []estelle.ParamDef{{Name: "bit", Type: "integer"}, {Name: "payload", Type: "octetstring"}}},
			{Name: "Ack", Params: []estelle.ParamDef{{Name: "bit", Type: "integer"}}},
		},
	},
}

// ABSenderBodyDef builds module ABSender with body ABSenderBody.
func ABSenderBodyDef() *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "ABSender",
		Attr: estelle.SystemProcess,
		IPs: []estelle.IPDef{
			{Name: "U", Channel: DataChannelChannel, Role: "provider"},
			{Name: "M", Channel: MediumChannelChannel, Role: "side"},
		},
		States: []string{"WAIT_SEND", "WAIT_ACK"},
		Init: func(ctx *estelle.Ctx) {
			ctx.SetVar("current", int64(0))
			ctx.SetVar("buf", "")
			ctx.ToState("WAIT_SEND")
			ctx.SetVar("current", int64(0))
		},
		Trans: []estelle.Trans{
			{
				Name: "ABSenderBody:30",
				From: []string{"WAIT_SEND"},
				To:   "WAIT_ACK",
				When: estelle.On("U", "SendReq"),
				Action: func(ctx *estelle.Ctx) {
					ctx.SetVar("buf", estParamStr(ctx, 0))
					ctx.Output("M", "Frame", estVarInt(ctx, "current"), estParamStr(ctx, 0))
				},
			},
			{
				Name:     "ABSenderBody:36",
				From:     []string{"WAIT_ACK"},
				To:       "WAIT_SEND",
				When:     estelle.On("M", "AckInd"),
				Provided: func(ctx *estelle.Ctx) bool { return (ctx.Msg.Int(0) == estVarInt(ctx, "current")) },
				Action: func(ctx *estelle.Ctx) {
					ctx.SetVar("current", (int64(1) - estVarInt(ctx, "current")))
				},
			},
			{
				Name:     "ABSenderBody:41",
				From:     []string{"WAIT_ACK"},
				When:     estelle.On("M", "AckInd"),
				Provided: func(ctx *estelle.Ctx) bool { return (ctx.Msg.Int(0) != estVarInt(ctx, "current")) },
				Action: func(ctx *estelle.Ctx) {
					_ = ctx
				},
			},
			{
				Name:     "ABSenderBody:45",
				From:     []string{"WAIT_ACK"},
				Priority: 5,
				Delay:    func(ctx *estelle.Ctx) time.Duration { return time.Duration(int64(50)) * time.Millisecond },
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("M", "Frame", estVarInt(ctx, "current"), estVarStr(ctx, "buf"))
				},
			},
		},
	}
}

// ABReceiverBodyDef builds module ABReceiver with body ABReceiverBody.
func ABReceiverBodyDef() *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "ABReceiver",
		Attr: estelle.SystemProcess,
		IPs: []estelle.IPDef{
			{Name: "U", Channel: DataChannelChannel, Role: "provider"},
			{Name: "M", Channel: MediumChannelChannel, Role: "side"},
		},
		States: []string{"LISTEN"},
		Init: func(ctx *estelle.Ctx) {
			ctx.SetVar("expected", int64(0))
			ctx.ToState("LISTEN")
			ctx.SetVar("expected", int64(0))
		},
		Trans: []estelle.Trans{
			{
				Name:     "ABReceiverBody:62",
				From:     []string{"LISTEN"},
				When:     estelle.On("M", "FrameInd"),
				Provided: func(ctx *estelle.Ctx) bool { return (ctx.Msg.Int(0) == estVarInt(ctx, "expected")) },
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("U", "DeliverInd", estParamStr(ctx, 1))
					ctx.Output("M", "Ack", ctx.Msg.Int(0))
					ctx.SetVar("expected", (int64(1) - estVarInt(ctx, "expected")))
				},
			},
			{
				Name:     "ABReceiverBody:68",
				From:     []string{"LISTEN"},
				When:     estelle.On("M", "FrameInd"),
				Provided: func(ctx *estelle.Ctx) bool { return (ctx.Msg.Int(0) != estVarInt(ctx, "expected")) },
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("M", "Ack", ctx.Msg.Int(0))
				},
			},
		},
	}
}

// BuildAlternatingBit instantiates the specification's configuration section:
// module variables, init bindings and connections. External module
// bodies are taken from externals, keyed by module name.
func BuildAlternatingBit(rt *estelle.Runtime, externals map[string]estelle.Body) (map[string]*estelle.Instance, error) {
	insts := make(map[string]*estelle.Instance)
	var err error
	insts["s"], err = rt.AddSystem(ABSenderBodyDef(), "s")
	if err != nil {
		return nil, err
	}
	insts["r"], err = rt.AddSystem(ABReceiverBodyDef(), "r")
	if err != nil {
		return nil, err
	}
	insts["m"], err = rt.AddSystem(&estelle.ModuleDef{
		Name: "Medium", Attr: estelle.SystemProcess, External: externals["Medium"],
		IPs: []estelle.IPDef{
			{Name: "A", Channel: MediumChannelChannel, Role: "net"},
			{Name: "B", Channel: MediumChannelChannel, Role: "net"},
		},
	}, "m")
	if err != nil {
		return nil, err
	}
	if err := rt.Connect(insts["s"].IP("M"), insts["m"].IP("A")); err != nil {
		return nil, err
	}
	if err := rt.Connect(insts["r"].IP("M"), insts["m"].IP("B")); err != nil {
		return nil, err
	}
	return insts, nil
}
