package xmovie

import (
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
type ServerConfig = core.ServerConfig

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
type Server = core.Server

// ListenAndServe starts an MCAM server.
func ListenAndServe(cfg ServerConfig) (*Server, error) { return core.NewServer(cfg) }
