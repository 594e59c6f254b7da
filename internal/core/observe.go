package core

import (
	"sort"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/obsv"
	"xmovie/internal/qos"
	"xmovie/internal/spa"
	"xmovie/internal/timewheel"
)

// Observation is the server's unified observability snapshot: everything
// the three historical snapshot methods (Stats, StreamStats, the disk
// store's cache counters) reported, plus the per-tenant QoS accounting —
// one coherent read instead of three ad-hoc ones. The /metrics endpoint
// renders the same data in Prometheus text format.
type Observation struct {
	// Sessions are the connection-manager counters (admissions,
	// rejections, active/peak, busy answers).
	Sessions SessionStats
	// Streams aggregates the data-plane outcomes of every finished stream:
	// frames sent/dropped/late, bytes, receiver feedback.
	Streams spa.Totals
	// Cache reports the server-built disk store's chunk cache (all zero
	// for memory backends or caller-provided stores).
	Cache moviedb.CacheStats
	// Tenants is the per-tenant QoS accounting, keyed by tenant name.
	// Configured tenants appear even before their first connection.
	Tenants map[string]qos.TenantStats
	// Delivery counts the zero-copy send path's activity (vectored sends,
	// coalesced batches, bytes moved without a user-space copy). The
	// counters are process-wide — MTP keeps them per process, not per
	// server — so two servers in one process observe a shared view.
	Delivery mtp.DeliveryStats
	// TimerWheel counts the shared pacing wheel's activity (ticks, timers
	// armed/fired/canceled). Process-wide like Delivery.
	TimerWheel timewheel.Stats
}

// Observe snapshots the server's counters across every subsystem.
func (s *Server) Observe() Observation {
	o := Observation{
		Sessions:   s.sessionStats(),
		Streams:    s.cfg.Env.StreamTotals.Snapshot(),
		Tenants:    s.ctl.Snapshot(),
		Delivery:   mtp.Delivery(),
		TimerWheel: timewheel.Default().Stats(),
	}
	if s.cache != nil {
		o.Cache = s.cache.Stats()
	}
	return o
}

// Registry returns the server's metrics registry, so embedders can mount
// additional collectors or serve it themselves instead of (or next to)
// MetricsAddr.
func (s *Server) Registry() *obsv.Registry { return s.registry }

// MetricsAddr returns the bound /metrics listen address ("" when metrics
// serving is not configured).
func (s *Server) MetricsAddr() string {
	if s.metricsLis == nil {
		return ""
	}
	return s.metricsLis.Addr().String()
}

// metricDef is one exported metric family. The set is fixed — every family
// is emitted on every scrape (tenant families once per known tenant) — and
// guarded against silent drift by TestMetricNamesGolden.
type metricDef struct {
	name string
	help string
	typ  obsv.Type
}

var (
	sessionMetrics = []metricDef{
		{"xmovie_sessions_accepted_total", "Sessions admitted past the admission bounds.", obsv.Counter},
		{"xmovie_sessions_rejected_total", "Connections refused at admission (limit, quota or closed).", obsv.Counter},
		{"xmovie_sessions_completed_total", "Sessions fully torn down.", obsv.Counter},
		{"xmovie_sessions_busy_total", "Refused connections answered with StatusBusy plus retry-after.", obsv.Counter},
		{"xmovie_sessions_active", "Currently admitted sessions.", obsv.Gauge},
		{"xmovie_sessions_peak", "High-water mark of active sessions.", obsv.Gauge},
	}
	streamMetrics = []metricDef{
		{"xmovie_streams_total", "Finished streams across every session's Stream Provider Agent.", obsv.Counter},
		{"xmovie_stream_frames_total", "Frames transmitted.", obsv.Counter},
		{"xmovie_stream_frames_dropped_total", "Frames skipped by adaptive delivery or unavailable reads.", obsv.Counter},
		{"xmovie_stream_frames_late_total", "Transmitted frames more than one period past their deadline.", obsv.Counter},
		{"xmovie_stream_bytes_total", "Stream payload bytes transmitted.", obsv.Counter},
		{"xmovie_stream_feedback_total", "Receiver feedback reports processed.", obsv.Counter},
	}
	cacheMetrics = []metricDef{
		{"xmovie_cache_hits_total", "Chunk cache hits (server-built disk store).", obsv.Counter},
		{"xmovie_cache_misses_total", "Chunk cache misses.", obsv.Counter},
		{"xmovie_cache_evictions_total", "Chunk cache evictions.", obsv.Counter},
		{"xmovie_cache_resident_bytes", "Chunk cache resident bytes.", obsv.Gauge},
		{"xmovie_cache_capacity_bytes", "Chunk cache capacity bound in bytes.", obsv.Gauge},
	}
	deliveryMetrics = []metricDef{
		{"xmovie_delivery_vec_sends_total", "Packets delivered through the zero-copy vectored send path.", obsv.Counter},
		{"xmovie_delivery_copy_sends_total", "Packets that fell back to the marshal-and-copy send path.", obsv.Counter},
		{"xmovie_delivery_batches_total", "Coalesced frame batches written by stream senders.", obsv.Counter},
		{"xmovie_delivery_batch_frames_total", "Frames carried by coalesced batches.", obsv.Counter},
		{"xmovie_delivery_vec_bytes_total", "Payload bytes handed to conns without a user-space copy.", obsv.Counter},
	}
	timewheelMetrics = []metricDef{
		{"xmovie_timewheel_ticks_total", "Passes the shared pacing timer wheel's tick goroutine has made (one a tick while anything is armed).", obsv.Counter},
		{"xmovie_timewheel_timers_armed_total", "Timers armed on the shared wheel.", obsv.Counter},
		{"xmovie_timewheel_timers_fired_total", "Wheel timers that fired at their deadline.", obsv.Counter},
		{"xmovie_timewheel_timers_canceled_total", "Wheel timers canceled before firing.", obsv.Counter},
	}
	tenantMetrics = []metricDef{
		{"xmovie_tenant_sessions_active", "Tenant's currently admitted sessions.", obsv.Gauge},
		{"xmovie_tenant_sessions_peak", "High-water mark of the tenant's active sessions.", obsv.Gauge},
		{"xmovie_tenant_sessions_admitted_total", "Tenant sessions admitted.", obsv.Counter},
		{"xmovie_tenant_sessions_rejected_total", "Tenant connections refused, by reason (quota or full).", obsv.Counter},
		{"xmovie_tenant_sessions_preempted_total", "Tenant sessions evicted by higher-priority admissions.", obsv.Counter},
		{"xmovie_tenant_preemptions_total", "Admissions the tenant won by preempting a lower-priority session.", obsv.Counter},
		{"xmovie_tenant_stream_frames_total", "Frames transmitted on the tenant's streams.", obsv.Counter},
		{"xmovie_tenant_stream_bytes_total", "Stream payload bytes transmitted for the tenant.", obsv.Counter},
		{"xmovie_tenant_throttle_bytes_total", "Bytes granted through the tenant's bandwidth cap.", obsv.Counter},
		{"xmovie_tenant_throttle_waits_total", "Cap reservations that imposed a wait.", obsv.Counter},
		{"xmovie_tenant_throttle_wait_seconds_total", "Cumulative wait imposed by the tenant's bandwidth cap.", obsv.Counter},
	}
)

// MetricNames returns every exported metric family name, sorted — the
// surface the drift-guard golden file pins.
func MetricNames() []string {
	var names []string
	for _, group := range [][]metricDef{sessionMetrics, streamMetrics, cacheMetrics, deliveryMetrics, timewheelMetrics, tenantMetrics} {
		for _, d := range group {
			names = append(names, d.name)
		}
	}
	sort.Strings(names)
	return names
}

// collectMetrics is the server's obsv.Collector: one Observe snapshot
// rendered as samples.
func (s *Server) collectMetrics(emit func(obsv.Metric)) {
	o := s.Observe()
	plain := func(d metricDef, v float64) {
		emit(obsv.Metric{Name: d.name, Help: d.help, Type: d.typ, Value: v})
	}
	plain(sessionMetrics[0], float64(o.Sessions.Accepted))
	plain(sessionMetrics[1], float64(o.Sessions.Rejected))
	plain(sessionMetrics[2], float64(o.Sessions.Completed))
	plain(sessionMetrics[3], float64(o.Sessions.Busy))
	plain(sessionMetrics[4], float64(o.Sessions.Active))
	plain(sessionMetrics[5], float64(o.Sessions.Peak))

	plain(streamMetrics[0], float64(o.Streams.Streams))
	plain(streamMetrics[1], float64(o.Streams.Frames))
	plain(streamMetrics[2], float64(o.Streams.Dropped))
	plain(streamMetrics[3], float64(o.Streams.Late))
	plain(streamMetrics[4], float64(o.Streams.Bytes))
	plain(streamMetrics[5], float64(o.Streams.Feedback))

	plain(cacheMetrics[0], float64(o.Cache.Hits))
	plain(cacheMetrics[1], float64(o.Cache.Misses))
	plain(cacheMetrics[2], float64(o.Cache.Evictions))
	plain(cacheMetrics[3], float64(o.Cache.Bytes))
	plain(cacheMetrics[4], float64(o.Cache.CapBytes))

	plain(deliveryMetrics[0], float64(o.Delivery.VecSends))
	plain(deliveryMetrics[1], float64(o.Delivery.CopySends))
	plain(deliveryMetrics[2], float64(o.Delivery.Batches))
	plain(deliveryMetrics[3], float64(o.Delivery.BatchFrames))
	plain(deliveryMetrics[4], float64(o.Delivery.VecBytes))

	plain(timewheelMetrics[0], float64(o.TimerWheel.Ticks))
	plain(timewheelMetrics[1], float64(o.TimerWheel.Armed))
	plain(timewheelMetrics[2], float64(o.TimerWheel.Fired))
	plain(timewheelMetrics[3], float64(o.TimerWheel.Canceled))

	tenant := func(d metricDef, name string, v float64, extra ...obsv.Label) {
		labels := append([]obsv.Label{{Key: "tenant", Value: name}}, extra...)
		emit(obsv.Metric{Name: d.name, Help: d.help, Type: d.typ, Labels: labels, Value: v})
	}
	for _, name := range qos.Tenants(o.Tenants) {
		t := o.Tenants[name]
		tenant(tenantMetrics[0], name, float64(t.Active))
		tenant(tenantMetrics[1], name, float64(t.Peak))
		tenant(tenantMetrics[2], name, float64(t.Admitted))
		tenant(tenantMetrics[3], name, float64(t.RejectedQuota), obsv.Label{Key: "reason", Value: "quota"})
		tenant(tenantMetrics[3], name, float64(t.RejectedFull), obsv.Label{Key: "reason", Value: "full"})
		tenant(tenantMetrics[4], name, float64(t.Preempted))
		tenant(tenantMetrics[5], name, float64(t.Preemptions))
		tenant(tenantMetrics[6], name, float64(t.Streams.Frames))
		tenant(tenantMetrics[7], name, float64(t.Streams.Bytes))
		tenant(tenantMetrics[8], name, float64(t.Throttle.Bytes))
		tenant(tenantMetrics[9], name, float64(t.Throttle.Waits))
		tenant(tenantMetrics[10], name, t.Throttle.Wait.Seconds())
	}
}
