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
	// Addr is the control-plane listen address (TPKT over TCP), e.g.
	// "127.0.0.1:0". Empty means no listener: an in-memory server fed
	// through Server.ServeConn (tests, embedded deployments, the load
	// harness).
	Addr string
	// MetricsAddr, when non-empty, serves the Observation as Prometheus
	// text on http://<MetricsAddr>/metrics (e.g. "127.0.0.1:0";
	// Server.MetricsAddr returns the bound address).
	MetricsAddr string
	// Stack selects the control stack (default StackGenerated).
	Stack StackKind
	// Env provides the movie store, stream dialer, directory and
	// equipment. A nil Env is equivalent to a zero one (reachable via
	// Server.Env). When Env.Store is nil the server builds one from
	// DataDir, owns it (closed on shutdown) and publishes it back into
	// Env.Store so the caller can seed the catalogue.
	Env *mcam.ServerEnv
	// DataDir, when non-empty, roots the durable sharded segment store
	// built for a nil Env.Store (per-movie segment files streamed back
	// through a bounded chunk cache); empty builds striped in-memory
	// stores.
	DataDir string
	// Processors limits the generated stack to P virtual processors
	// (0 = unlimited), modelling the paper's multiprocessor sizing.
	Processors int
	// Limits bounds admission and per-session resources, including the
	// per-tenant QoS policy.
	Limits Limits
	// TenantOf classifies an accepted listener connection into a tenant
	// name for Limits.QoS (nil = every connection is the anonymous tenant
	// ""). Sessions fed in memory use ServeConnFor instead.
	TenantOf func(transport.Conn) string
	// QoSLog, when non-nil, receives one JSON line per QoS decision
	// (admission, quota/full rejection, preemption) — the structured event
	// log. Writes happen synchronously from the admission path; wrap slow
	// sinks in a buffered writer.
	QoSLog io.Writer
}
