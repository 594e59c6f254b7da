// Code generated by estgen from specification PingPong. DO NOT EDIT.
//
// The generation pipeline is the paper's methodology: Estelle text ->
// parser -> this Go source -> the estelle runtime (its scheduler plays
// the role of the OSF/1 tasks and threads of the original system).
package pingpong

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

// PingChannelChannel is channel PingChannel(caller, callee) of the specification.
var PingChannelChannel = &estelle.ChannelDef{
	Name:  "PingChannel",
	RoleA: "caller",
	RoleB: "callee",
	ByRole: map[string][]estelle.MsgDef{
		"callee": {
			{Name: "Pong", Params: []estelle.ParamDef{{Name: "n", Type: "integer"}}},
		},
		"caller": {
			{Name: "Ping", Params: []estelle.ParamDef{{Name: "n", Type: "integer"}}},
		},
	},
}

// PingerBodyDef builds module Pinger with body PingerBody.
func PingerBodyDef() *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "Pinger",
		Attr: estelle.SystemProcess,
		IPs: []estelle.IPDef{
			{Name: "P", Channel: PingChannelChannel, Role: "caller"},
		},
		States: []string{"START", "RUNNING", "DONE"},
		Init: func(ctx *estelle.Ctx) {
			ctx.SetVar("count", int64(0))
			ctx.SetVar("rounds", int64(0))
			ctx.ToState("START")
			ctx.SetVar("count", int64(0))
			ctx.SetVar("rounds", int64(10))
		},
		Trans: []estelle.Trans{
			{
				Name: "PingerBody:22",
				From: []string{"START"},
				To:   "RUNNING",
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("P", "Ping", int64(0))
				},
			},
			{
				Name:     "PingerBody:25",
				From:     []string{"RUNNING"},
				When:     estelle.On("P", "Pong"),
				Provided: func(ctx *estelle.Ctx) bool { return (estVarInt(ctx, "count") < (estVarInt(ctx, "rounds") - int64(1))) },
				Action: func(ctx *estelle.Ctx) {
					ctx.SetVar("count", (estVarInt(ctx, "count") + int64(1)))
					ctx.Output("P", "Ping", estVarInt(ctx, "count"))
				},
			},
			{
				Name: "PingerBody:29",
				From: []string{"RUNNING"},
				To:   "DONE",
				When: estelle.On("P", "Pong"),
				Action: func(ctx *estelle.Ctx) {
					ctx.SetVar("count", (estVarInt(ctx, "count") + int64(1)))
				},
			},
		},
	}
}

// PongerBodyDef builds module Ponger with body PongerBody.
func PongerBodyDef() *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "Ponger",
		Attr: estelle.SystemProcess,
		IPs: []estelle.IPDef{
			{Name: "P", Channel: PingChannelChannel, Role: "callee"},
		},
		States: []string{"IDLE"},
		Init: func(ctx *estelle.Ctx) {
		},
		Trans: []estelle.Trans{
			{
				Name: "PongerBody:41",
				From: []string{"IDLE"},
				When: estelle.On("P", "Ping"),
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("P", "Pong", ctx.Msg.Int(0))
				},
			},
		},
	}
}

// BuildPingPong instantiates the specification's configuration section:
// module variables, init bindings and connections. External module
// bodies are taken from externals, keyed by module name.
func BuildPingPong(rt *estelle.Runtime, externals map[string]estelle.Body) (map[string]*estelle.Instance, error) {
	insts := make(map[string]*estelle.Instance)
	var err error
	insts["a"], err = rt.AddSystem(PingerBodyDef(), "a")
	if err != nil {
		return nil, err
	}
	insts["b"], err = rt.AddSystem(PongerBodyDef(), "b")
	if err != nil {
		return nil, err
	}
	if err := rt.Connect(insts["a"].IP("P"), insts["b"].IP("P")); err != nil {
		return nil, err
	}
	return insts, nil
}
