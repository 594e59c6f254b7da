package mcam

import (
	"sync"

	"xmovie/internal/estelle"
	"xmovie/internal/presentation"
)

// serverBody carries the per-association server state: the request handler
// and the queue through which stream goroutines hand events to the
// scheduler goroutine.
type serverBody struct {
	h *handler

	mu     sync.Mutex
	events []Event
	self   *estelle.Instance
}

// pushEvent is called from SPA goroutines.
func (b *serverBody) pushEvent(e Event) {
	b.mu.Lock()
	b.events = append(b.events, e)
	self := b.self
	b.mu.Unlock()
	if self != nil {
		self.Notify()
	}
}

func (b *serverBody) popEvent() (Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) == 0 {
		return Event{}, false
	}
	e := b.events[0]
	b.events = b.events[1:]
	return e, true
}

// Step implements estelle.Body: forward queued stream events as Event PDUs
// while the association is up.
func (b *serverBody) Step(ctx *estelle.Ctx) bool {
	if ctx.Self().State() != "Ready" {
		return false
	}
	worked := false
	for {
		e, ok := b.popEvent()
		if !ok {
			return worked
		}
		worked = true
		enc, err := (&PDU{Event: &e}).Encode()
		if err != nil {
			continue
		}
		ctx.Output("P", "PDatReq", ContextID, enc)
	}
}

// Shutdown forcibly releases the association's stream resources. It is the
// connection manager's last resort for sessions whose transport vanished
// before the release/abort transitions could run; safe from any goroutine
// and idempotent.
func (b *serverBody) Shutdown() { b.h.close() }

// ServerHooks lets the entity that owns a server MCA observe its lifecycle.
// All callbacks run on the MCA's scheduler goroutine and must not block.
type ServerHooks struct {
	// OnDead fires when the MCA leaves service (orderly release or abort).
	// It may fire more than once (e.g. abort after release); callers
	// needing once-semantics guard themselves.
	OnDead func()
	// OnBody receives the association's serverBody right after Init so the
	// connection manager can force a teardown later (Shutdown).
	OnBody func(interface{ Shutdown() })
	// QoS, when non-nil, is the session's tenant binding (bandwidth cap and
	// per-tenant stream counters), resolved by the connection manager at
	// admission.
	QoS *SessionQoS
}

// ServerModuleDef returns the server-side Movie Control Agent for one
// association: the module the paper's server entity creates per incoming
// connection ("the server... creates the same Estelle modules", §4.1).
// Each instance builds its own handler (and external event body) over the
// shared environment; hooks let the entity that owns the MCA (the
// connection manager in internal/core) observe its lifecycle. The def
// captures env and hooks, so it is built per association.
func ServerModuleDef(env *ServerEnv, hooks ServerHooks) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "MCAServer",
		Attr: estelle.Process,
		IPs: []estelle.IPDef{
			{Name: "P", Channel: presentation.ServiceChannel, Role: "user"},
		},
		States: []string{"WaitAssoc", "Ready", "Dead"},
		Init: func(ctx *estelle.Ctx) {
			body := &serverBody{self: ctx.Self()}
			body.h = newHandler(env, hooks.QoS, body.pushEvent)
			ctx.SetBody(body)
			ctx.SetExternal(body)
			if hooks.OnBody != nil {
				hooks.OnBody(body)
			}
		},
		Trans: []estelle.Trans{
			{
				Name: "assoc", From: []string{"WaitAssoc"}, When: estelle.On("P", "PConInd"),
				To: "Ready",
				Action: func(ctx *estelle.Ctx) {
					// Kernel policy: accept every association; admission
					// control belongs to the entity above.
					ctx.Output("P", "PConResp", true, []byte(nil))
				},
			},
			{
				Name: "request", From: []string{"Ready"}, When: estelle.On("P", "PDatInd"),
				Action: func(ctx *estelle.Ctx) {
					b := ctx.Body().(*serverBody)
					pdu, err := Decode(ctx.Msg.Bytes(1))
					if err != nil || pdu.Request == nil {
						resp := &Response{Status: StatusProtocolError, Diagnostic: "expected request"}
						if enc, encErr := (&PDU{Response: resp}).Encode(); encErr == nil {
							ctx.Output("P", "PDatReq", ContextID, enc)
						}
						return
					}
					resp := b.h.execute(pdu.Request)
					enc, err := (&PDU{Response: resp}).Encode()
					if err != nil {
						return
					}
					ctx.Output("P", "PDatReq", ContextID, enc)
				},
			},
			{
				Name: "relind", From: []string{"Ready"}, When: estelle.On("P", "PRelInd"),
				To: "Dead",
				Action: func(ctx *estelle.Ctx) {
					ctx.Body().(*serverBody).h.close()
					ctx.Output("P", "PRelResp")
					if hooks.OnDead != nil {
						hooks.OnDead()
					}
				},
			},
			{
				Name: "abort", When: estelle.On("P", "PAbortInd"), To: "Dead",
				Action: func(ctx *estelle.Ctx) {
					if b := ctx.Body().(*serverBody); b.h != nil {
						b.h.close()
					}
					if hooks.OnDead != nil {
						hooks.OnDead()
					}
				},
			},
			{
				Name: "dead-drain", From: []string{"Dead"}, When: estelle.On("P", "PDatInd"),
				Priority: 10, Action: func(*estelle.Ctx) {},
			},
		},
	}
}
