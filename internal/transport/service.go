package transport

import (
	"xmovie/internal/estelle"
)

// ServiceChannel is the ISO-style transport service boundary used by the
// session layer: T-CONNECT, T-DATA and T-DISCONNECT primitives.
//
// Roles: "user" (the session entity) and "provider" (the transport system).
var ServiceChannel = &estelle.ChannelDef{
	Name:  "TransportService",
	RoleA: "user",
	RoleB: "provider",
	ByRole: map[string][]estelle.MsgDef{
		"user": {
			{Name: "TConReq", Params: []estelle.ParamDef{{Name: "calledAddr", Type: "string"}}},
			{Name: "TConResp"},
			{Name: "TDatReq", Params: []estelle.ParamDef{{Name: "data", Type: "octetstring"}}},
			{Name: "TDisReq"},
		},
		"provider": {
			{Name: "TConInd", Params: []estelle.ParamDef{{Name: "callingAddr", Type: "string"}}},
			{Name: "TConCnf"},
			{Name: "TDatInd", Params: []estelle.ParamDef{{Name: "data", Type: "octetstring"}}},
			{Name: "TDisInd"},
		},
	},
}

// PipeProviderDef returns the module definition of an in-runtime transport
// pipe serving exactly one connection between its two service access points
// A and B — the "simulated transport layer pipe" of the paper's §5.1 test
// environment. It is a plain Estelle FSM: no goroutines, no I/O. It is one
// def, compiled once and shared by every pipe; callers must not modify it.
func PipeProviderDef() *estelle.ModuleDef { return pipeProvider }

var pipeProvider = estelle.MustCompile(&estelle.ModuleDef{
	Name: "TransportPipe",
	Attr: estelle.Process,
	IPs: []estelle.IPDef{
		{Name: "A", Channel: ServiceChannel, Role: "provider"},
		{Name: "B", Channel: ServiceChannel, Role: "provider"},
	},
	States: []string{"Idle", "Calling", "Connected"},
	Trans: []estelle.Trans{
		{
			Name: "connect",
			From: []string{"Idle"},
			When: estelle.On("A", "TConReq"),
			To:   "Calling",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("B", "TConInd", ctx.Msg.Arg(0))
			},
		},
		{
			Name: "accept",
			From: []string{"Calling"},
			When: estelle.On("B", "TConResp"),
			To:   "Connected",
			Action: func(ctx *estelle.Ctx) {
				ctx.Output("A", "TConCnf")
			},
		},
		pipeRelay("A", "B"),
		pipeRelay("B", "A"),
		pipeDisconnect("A", "B"),
		pipeDisconnect("B", "A"),
		pipeDisCollision("A"),
		pipeDisCollision("B"),
	},
})

func pipeRelay(from, to string) estelle.Trans {
	return estelle.Trans{
		Name: "data-" + from + to,
		From: []string{"Connected"},
		When: estelle.On(from, "TDatReq"),
		Action: func(ctx *estelle.Ctx) {
			ctx.Output(to, "TDatInd", ctx.Msg.Arg(0))
		},
	}
}

func pipeDisconnect(from, to string) estelle.Trans {
	return estelle.Trans{
		Name: "dis-" + from + to,
		From: []string{"Connected", "Calling"},
		When: estelle.On(from, "TDisReq"),
		To:   "Idle",
		Action: func(ctx *estelle.Ctx) {
			ctx.Output(to, "TDisInd")
		},
	}
}

// pipeDisCollision takes a TDisReq that reaches an idle pipe: both users
// asked to disconnect, and the other request already closed the
// connection. As in a T-DISCONNECT collision of the transport service, it
// is consumed without an indication.
func pipeDisCollision(from string) estelle.Trans {
	return estelle.Trans{
		Name: "dis-late-" + from,
		From: []string{"Idle"},
		When: estelle.On(from, "TDisReq"),
	}
}

// connBody is the external body bridging an Estelle transport-service IP to
// a real Conn (TCP/TPKT or in-memory pipe). It is the package's equivalent
// of the paper's hand-coded ISODE interface module (§4.3): a loop that maps
// Estelle interactions onto library calls and back.
//
// The module reads the conn's inbox (see withInbox): a pipe's writer, or
// an adopted conn's reader, queues each message and notifies the module,
// and Step takes it.
type connBody struct {
	conn     Conn
	accepted bool
	// onGone, when non-nil, is called once, on the scheduler's goroutine,
	// right after the TDisInd that reports the transport gone.
	onGone func()

	// Owned by Step (the scheduler's goroutine): in is conn's inbox, set
	// when Step first runs, and conn is from then on the conn that owns it.
	in   *inbox
	gone bool
}

// ConnProviderDef returns a transport provider module def whose single
// service access point U is backed by conn. If accepted is true the module
// represents the called side: it emits TConInd when the user is ready and
// completes with TConResp; otherwise the module is the calling side,
// answering TConReq with TConCnf (the connection below is already open).
// onGone, when non-nil, is called once when the connection below is gone
// (peer EOF, a receive error or a local Close), after the module has
// emitted the TDisInd that reports it.
func ConnProviderDef(conn Conn, accepted bool, onGone func()) *estelle.ModuleDef {
	body := &connBody{conn: conn, accepted: accepted, onGone: onGone}
	return &estelle.ModuleDef{
		Name: "TransportConn",
		Attr: estelle.Process,
		IPs: []estelle.IPDef{
			{Name: "U", Channel: ServiceChannel, Role: "provider"},
		},
		External: body,
	}
}

// Step implements estelle.Body. It follows the structure of the paper's
// §4.3 interface-module loop: translate pending Estelle interactions into
// library calls, then translate pending library events into Estelle outputs.
func (b *connBody) Step(ctx *estelle.Ctx) bool {
	ip := ctx.Self().IP("U")
	if b.in == nil {
		b.start(ctx)
	}
	worked := false
	for {
		in := ip.PopInput()
		if in == nil {
			break
		}
		worked = true
		switch in.Name {
		case "TConReq":
			// The underlying connection is already established.
			ctx.Output("U", "TConCnf")
		case "TConResp":
			// Called side completed; nothing to send at this level.
		case "TDatReq":
			// Conn.Send does not retain the buffer, so the interaction can
			// be recycled right after.
			if err := b.conn.Send(in.Bytes(0)); err != nil {
				ctx.Output("U", "TDisInd")
			}
		case "TDisReq":
			_ = b.conn.Close()
		}
		in.Release()
	}
	for !b.gone {
		p, err := b.in.tryRecv()
		if p == nil && err == nil {
			break
		}
		worked = true
		if p != nil {
			ctx.Output("U", "TDatInd", p)
			continue
		}
		b.gone = true
		ctx.Output("U", "TDisInd")
		if b.onGone != nil {
			b.onGone()
		}
	}
	return worked
}

// start runs on the first Step: it hooks the conn's inbox to this module
// and announces an incoming connection on the called side.
func (b *connBody) start(ctx *estelle.Ctx) {
	b.conn, b.in = withInbox(b.conn, defaultCapacity)
	b.in.setReceiver(ctx.Self().Notify)
	if b.accepted {
		ctx.Output("U", "TConInd", "")
	}
}
