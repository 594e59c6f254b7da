// Package core assembles the MCAM system of the paper's Figs. 1-3: client
// and server entities built from Estelle modules (MCA, presentation and
// session protocol machines, transport interface modules), created
// dynamically per connection exactly as §4.1 describes — "when a connection
// request is received ... a client module will create an MCAM module and
// either presentation and session modules or an ISODE interface module".
//
// Two stack variants are assembled, mirroring the paper's experimental
// setup (§3):
//
//   - StackGenerated: MCAM over the Estelle session+presentation modules
//     executed by the runtime's scheduler;
//   - StackHandcoded: MCAM directly over the hand-coded ISODE-equivalent
//     library, one goroutine per association.
//
// The Server side is a connection manager (connmgr.go): bounded admission,
// per-session entity lifecycle, and graceful drain, scaling the paper's
// one-user working system to thousands of concurrent sessions.
package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"xmovie/internal/estelle"
	"xmovie/internal/mcam"
	"xmovie/internal/presentation"
	"xmovie/internal/qos"
	"xmovie/internal/session"
	"xmovie/internal/transport"
)

// Client-side timeouts: the control plane is low-rate and reliable, so
// generous bounds only guard against wedged associations.
const (
	defaultDialTimeout = 30 * time.Second
	defaultCallTimeout = 30 * time.Second
)

// StackKind selects the control-protocol stack implementation.
type StackKind int

// Stack variants of the paper's §3.
const (
	// StackGenerated runs MCAM over Estelle session+presentation modules.
	StackGenerated StackKind = iota + 1
	// StackHandcoded runs MCAM directly over the ISODE stand-in.
	StackHandcoded
)

// String names the stack.
func (k StackKind) String() string {
	switch k {
	case StackGenerated:
		return "generated"
	case StackHandcoded:
		return "handcoded"
	default:
		return fmt.Sprintf("StackKind(%d)", int(k))
	}
}

// ClientEntityDef builds the client entity of Fig. 3: a system module whose
// children are the client MCA, presentation and session protocol machines,
// and a transport interface module bound to conn. The entity's external
// "U" interaction point is attached through to the MCA, so the application
// talks to the entity. GroupRoot marks the subtree for connection-per-unit
// mapping.
func ClientEntityDef(conn transport.Conn) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name:      "MCAMClientEntity",
		Attr:      estelle.SystemProcess,
		GroupRoot: true,
		IPs: []estelle.IPDef{
			{Name: "U", Channel: mcam.UserChannel, Role: "provider"},
		},
		Init: func(ctx *estelle.Ctx) {
			mca := ctx.MustInit(mcam.ClientModuleDef(), "mca")
			pres := ctx.MustInit(presentation.ProtocolMachineDef(), "pres")
			sess := ctx.MustInit(session.ProtocolMachineDef(), "sess")
			prov := ctx.MustInit(transport.ConnProviderDef(conn, false, nil), "prov")
			mustWire(ctx,
				[2]*estelle.IP{mca.IP("P"), pres.IP("P")},
				[2]*estelle.IP{pres.IP("S"), sess.IP("S")},
				[2]*estelle.IP{sess.IP("T"), prov.IP("U")},
			)
			if err := ctx.Attach(ctx.Self().IP("U"), mca.IP("U")); err != nil {
				panic(err)
			}
		},
	}
}

// serverConnDef builds the per-connection server entity: server MCA +
// presentation + session + transport interface over an accepted conn, with
// the connection manager's lifecycle hooks wired into the MCA, and onGone
// (when non-nil) called with the entity's root instance once the transport
// below is gone.
func serverConnDef(env *mcam.ServerEnv, conn transport.Conn, hooks mcam.ServerHooks, onGone func(root *estelle.Instance)) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name:      "MCAMServerConn",
		Attr:      estelle.SystemProcess,
		GroupRoot: true,
		Init: func(ctx *estelle.Ctx) {
			mca := ctx.MustInit(mcam.ServerModuleDef(env, hooks), "mca")
			pres := ctx.MustInit(presentation.ProtocolMachineDef(), "pres")
			sess := ctx.MustInit(session.ProtocolMachineDef(), "sess")
			var gone func()
			if onGone != nil {
				root := ctx.Self()
				gone = func() { onGone(root) }
			}
			prov := ctx.MustInit(transport.ConnProviderDef(conn, true, gone), "prov")
			mustWire(ctx,
				[2]*estelle.IP{mca.IP("P"), pres.IP("P")},
				[2]*estelle.IP{pres.IP("S"), sess.IP("S")},
				[2]*estelle.IP{sess.IP("T"), prov.IP("U")},
			)
		},
	}
}

func mustWire(ctx *estelle.Ctx, pairs ...[2]*estelle.IP) {
	for _, p := range pairs {
		if err := ctx.Connect(p[0], p[1]); err != nil {
			panic(err)
		}
	}
}

// Limits groups the server's admission and per-session resource bounds —
// the knobs that decide who gets in and how much they may consume.
type Limits struct {
	// MaxSessions bounds concurrently admitted sessions (0 =
	// DefaultMaxSessions). Connections beyond the bound are answered with
	// StatusBusy plus a retry-after hint by a short-lived responder, then
	// closed — unless the QoS policy lets them preempt a lower-priority
	// session.
	MaxSessions int
	// BusyRetryAfter is the retry-after hint in over-limit StatusBusy
	// responses (0 = 1s).
	BusyRetryAfter time.Duration
	// QoS is the per-tenant admission and bandwidth policy: session
	// quotas, stream-bandwidth caps, and admission priorities under which
	// high-priority connections preempt low-priority sessions at the
	// MaxSessions bound. The zero Policy admits everything uniformly.
	QoS qos.Policy
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// Addr is the TPKT listen address, e.g. "127.0.0.1:0". Empty means no
	// listener: an in-memory server fed through ServeConn.
	Addr string
	// MetricsAddr, when non-empty, serves the observability registry as a
	// Prometheus-text /metrics HTTP endpoint on this address (e.g.
	// "127.0.0.1:0"; Server.MetricsAddr returns the bound address).
	MetricsAddr string
	// Stack selects generated or hand-coded control plane (default
	// generated).
	Stack StackKind
	// Env provides store, streams, directory and equipment. A nil Env is
	// legal: the server builds an empty one (reachable via Server.Env).
	// When Env.Store is nil the server constructs one from DataDir and
	// owns it (closing it on shutdown); the built store is published back
	// into Env.Store so callers can seed it.
	Env *mcam.ServerEnv
	// DataDir, when non-empty, roots the durable sharded segment store
	// built for a nil Env.Store; empty builds striped in-memory stores.
	DataDir string
	// Processors limits the generated stack to P virtual processors
	// (0 = unlimited).
	Processors int
	// Limits bounds admission and per-session resources, including the
	// per-tenant QoS policy.
	Limits Limits
	// TenantOf classifies accepted connections into QoS tenants (nil = the
	// anonymous tenant ""). In-memory callers bypass it with ServeConnFor.
	TenantOf func(transport.Conn) string
	// QoSLog, when non-nil, receives one JSON line per QoS decision
	// (admission, quota/full rejection, preemption) — the structured event
	// log. Writes happen synchronously from the admission path; hand it
	// something fast.
	QoSLog io.Writer
	// TeardownGrace overrides how long a dead connection's entity may take
	// to run its own release path before streams are torn down forcibly
	// (0 = 5s). Mainly for tests.
	TeardownGrace time.Duration
}

// ErrBadStack reports an unsupported stack kind.
var ErrBadStack = errors.New("core: unsupported stack kind")

// Client is an MCAM client entity over either stack.
type Client struct {
	stack StackKind

	// Generated-stack state.
	rt    *estelle.Runtime
	sched *estelle.Scheduler
	app   *mcam.AppClient

	// Hand-coded-stack state.
	iso *mcam.IsodeClient

	conn        transport.Conn
	callTimeout time.Duration
}

// ClientConfig configures Dial.
type ClientConfig struct {
	// Stack selects the control stack (default generated).
	Stack StackKind
	// CalledSelector names the server entity (default "mcam-server").
	CalledSelector string
	// CallTimeout bounds Dial's association setup and each Call
	// (default 30s).
	CallTimeout time.Duration
}

// Dial connects to an MCAM server at the TPKT address addr.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(conn, cfg)
}

// NewClientConn builds a client entity over an existing transport
// connection (tests and in-process examples use pipes).
func NewClientConn(conn transport.Conn, cfg ClientConfig) (*Client, error) {
	if cfg.Stack == 0 {
		cfg.Stack = StackGenerated
	}
	if cfg.CalledSelector == "" {
		cfg.CalledSelector = "mcam-server"
	}
	dialTimeout := defaultDialTimeout
	callTimeout := defaultCallTimeout
	if cfg.CallTimeout > 0 {
		dialTimeout = cfg.CallTimeout
		callTimeout = cfg.CallTimeout
	}
	c := &Client{stack: cfg.Stack, conn: conn, callTimeout: callTimeout}
	switch cfg.Stack {
	case StackHandcoded:
		iso, err := mcam.DialIsodeTimeout(conn, cfg.CalledSelector, callTimeout)
		if err != nil {
			conn.Close()
			return nil, err
		}
		c.iso = iso
	case StackGenerated:
		c.rt = estelle.NewRuntime()
		entity, err := c.rt.AddSystem(ClientEntityDef(conn), "client")
		if err != nil {
			conn.Close()
			return nil, err
		}
		c.app = mcam.NewAppClient(entity.IP("U"))
		c.sched = estelle.NewScheduler(c.rt, estelle.MapPerGroupRoot)
		if err := c.sched.Start(); err != nil {
			conn.Close()
			return nil, err
		}
		if err := c.app.Connect(cfg.CalledSelector, dialTimeout); err != nil {
			c.sched.Stop()
			conn.Close()
			return nil, err
		}
	default:
		conn.Close()
		return nil, ErrBadStack
	}
	return c, nil
}

// App returns the generated-stack application interface (nil when
// hand-coded).
func (c *Client) App() *mcam.AppClient { return c.app }

// Iso returns the hand-coded client (nil when generated).
func (c *Client) Iso() *mcam.IsodeClient { return c.iso }

// Call performs one MCAM operation over whichever stack is active.
func (c *Client) Call(req *mcam.Request) (*mcam.Response, error) {
	if c.iso != nil {
		return c.iso.Call(req)
	}
	return c.app.Call(req, c.callTimeout)
}

// Close releases the association and tears the entity down. Afterwards any
// waiter still blocked in Call or AwaitEvent fails fast with ErrClosed.
func (c *Client) Close() error {
	var err error
	if c.iso != nil {
		err = c.iso.Close()
	} else {
		err = c.app.Release(c.callTimeout)
		c.sched.Stop()
		c.app.MarkClosed()
	}
	_ = c.conn.Close()
	return err
}
