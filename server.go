package xmovie

import (
	"io"
	"time"

	"xmovie/internal/core"
	"xmovie/internal/qos"
	"xmovie/internal/spa"
)

// Limits groups the server's admission bounds: the global session
// ceiling, the busy retry-after hint, and the per-tenant QoS policy. The
// per-read storage timeout is ServerEnv.StreamReadTimeout.
type Limits = core.Limits

// QoSPolicy maps tenants to service classes: per-tenant session quotas,
// stream-bandwidth caps and admission priorities. The zero value admits
// everyone into an unlimited default class.
type QoSPolicy = qos.Policy

// QoSClass is one service class in a QoSPolicy (priority, session quota,
// aggregate stream-bandwidth cap).
type QoSClass = qos.Class

// TenantStats is one tenant's QoS accounting in an Observation.
type TenantStats = qos.TenantStats

// Observation is the server's unified observability snapshot: session
// admission counters, aggregate stream outcomes, chunk-cache hit rates and
// per-tenant QoS accounting in one coherent read.
type Observation = core.Observation

// ServerConfig configures ListenAndServe.
type ServerConfig struct {
	// Addr is the control-plane listen address (TPKT over TCP), e.g.
	// "127.0.0.1:0". Empty means no listener: an in-memory server fed
	// through Server.ServeConn (tests, embedded deployments, the load
	// harness).
	Addr string
	// MetricsAddr, when non-empty, serves the Observation as Prometheus
	// text on http://<MetricsAddr>/metrics.
	MetricsAddr string
	// Stack selects the control stack (default StackGenerated).
	Stack StackKind
	// Env provides the movie store, stream dialer, directory and
	// equipment. When Env.Store is nil the server builds one from
	// DataDir, owns it (closed on shutdown) and publishes it back into
	// Env.Store so the caller can seed the catalogue. A nil Env is
	// equivalent to a zero one.
	Env *ServerEnv
	// DataDir, when non-empty, roots the durable store built for a nil
	// Env.Store (per-movie segment files streamed back through a bounded
	// chunk cache); empty builds a sharded in-memory store.
	DataDir string
	// Processors limits the generated stack to P virtual processors
	// (0 = unlimited), modelling the paper's multiprocessor sizing.
	Processors int
	// Limits bounds admission: session ceiling, busy retry-after hint,
	// per-tenant QoS policy.
	Limits Limits
	// TenantOf classifies an accepted listener connection into a tenant
	// name for Limits.QoS (nil = every connection is the default tenant).
	// Sessions fed through ServeConn use ServeConnFor instead.
	TenantOf func(Conn) string
	// QoSLog, when non-nil, receives one JSON line per QoS admission
	// decision (admit, reject, preempt). Writes are synchronous; wrap slow
	// sinks in a buffered writer.
	QoSLog io.Writer
}

// SessionStats counts connection-manager activity (admissions, rejections,
// active/peak sessions).
type SessionStats = core.SessionStats

// StreamTotals aggregates the server's data-plane outcomes across every
// session's Stream Provider Agent: frames sent, frames dropped by adaptive
// delivery, late sends, bytes, and receiver feedback reports.
type StreamTotals = spa.Totals

// Server is a running MCAM server entity. One server admits any number of
// control connections up to its session bound, creating the per-connection
// Estelle modules (or hand-coded handlers) dynamically, exactly as the
// paper's server machine does — and reclaiming them when sessions end.
type Server struct {
	inner *core.Server
}

// ListenAndServe starts an MCAM server.
func ListenAndServe(cfg ServerConfig) (*Server, error) {
	inner, err := core.NewServer(core.ServerConfig{
		Addr:        cfg.Addr,
		MetricsAddr: cfg.MetricsAddr,
		Stack:       cfg.Stack,
		Env:         cfg.Env,
		DataDir:     cfg.DataDir,
		Processors:  cfg.Processors,
		Limits:      cfg.Limits,
		TenantOf:    cfg.TenantOf,
		QoSLog:      cfg.QoSLog,
	})
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner}, nil
}

// Addr returns the bound control-plane address ("" when the server has no
// listener).
func (s *Server) Addr() string { return s.inner.Addr() }

// MetricsAddr returns the bound /metrics listen address ("" when
// ServerConfig.MetricsAddr was empty).
func (s *Server) MetricsAddr() string { return s.inner.MetricsAddr() }

// Env returns the server's environment — the one passed in
// ServerConfig.Env, or the server-built one for a nil config Env.
func (s *Server) Env() *ServerEnv { return s.inner.Env() }

// ServeConn admits an in-memory transport connection (e.g. one end of a
// Pipe) as a control session under the default tenant (or the
// ServerConfig.TenantOf classification when set).
func (s *Server) ServeConn(conn Conn) error { return s.inner.ServeConn(conn) }

// ServeConnFor admits an in-memory transport connection as a control
// session belonging to tenant ("" = default class).
func (s *Server) ServeConnFor(conn Conn, tenant string) error {
	return s.inner.ServeConnFor(conn, tenant)
}

// Observe snapshots every observability counter the server keeps — the
// same data /metrics serves — in one coherent read. (The deprecated
// Stats/StreamStats wrappers were removed after their one-release grace
// period; read Observe().Sessions and Observe().Streams.)
func (s *Server) Observe() Observation { return s.inner.Observe() }

// Drain stops admitting new sessions, waits up to timeout for active ones
// to complete, then force-closes the remainder and shuts down.
func (s *Server) Drain(timeout time.Duration) error { return s.inner.Drain(timeout) }

// Close stops the server immediately, force-closing active sessions.
func (s *Server) Close() error { return s.inner.Close() }
