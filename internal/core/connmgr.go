package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"xmovie/internal/estelle"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/obsv"
	"xmovie/internal/qos"
	"xmovie/internal/spa"
	"xmovie/internal/transport"
)

// Admission errors returned by ServeConn.
var (
	// ErrServerFull reports that the session limit was reached (and the
	// connection's tenant outranked nothing it could preempt).
	ErrServerFull = errors.New("core: session limit reached")
	// ErrServerClosed reports that the server is closed or draining.
	ErrServerClosed = errors.New("core: server closed")
	// ErrTenantQuota reports that the connection's tenant is at its own
	// session quota (Limits.QoS), regardless of server-wide headroom.
	ErrTenantQuota = errors.New("core: tenant session quota reached")
)

// DefaultMaxSessions bounds concurrent sessions when ServerConfig.MaxSessions
// is zero. The bound is admission control, not a hard resource ceiling: each
// admitted session costs a few goroutines and queues, so an unbounded server
// would fall over under connection floods rather than shed load.
const DefaultMaxSessions = 16384

// defaultTeardownGrace is how long the connection manager waits, after a
// session's transport has gone, for the entity's own release/abort
// transitions to run before forcing stream teardown.
const defaultTeardownGrace = 5 * time.Second

// SessionStats counts connection-manager activity. Snapshot via
// Server.Stats.
type SessionStats struct {
	// Accepted counts sessions admitted past the MaxSessions bound.
	Accepted int64
	// Rejected counts connections refused at admission (limit or closed).
	Rejected int64
	// Completed counts sessions fully torn down.
	Completed int64
	// Active is the number of currently admitted sessions.
	Active int64
	// Peak is the high-water mark of Active.
	Peak int64
	// Busy counts over-limit connections answered with StatusBusy (a
	// subset of Rejected).
	Busy int64
}

// session is one admitted control connection.
type srvSession struct {
	id   int64
	conn transport.Conn
	// mu guards dead and reaper (generated stack only). dead records that
	// the server MCA reported release or abort. reaper is armed when the
	// transport is gone: by then everything the entity had to say is on
	// the wire (or lost with it), so releasing the entity cannot cut off a
	// response.
	mu     sync.Mutex
	dead   bool
	reaper *time.Timer
	// force is the generated-stack handle for tearing down the session's
	// streams when the entity never reached its own release path. Set
	// during entity Init, before the transport can report itself gone.
	force interface{ Shutdown() }
	// grant is the session's hold on its tenant's QoS budget, released in
	// finish.
	grant *qos.Grant
	// preempted marks a session evicted for a higher-priority admission:
	// it no longer counts against MaxSessions (its replacement does) and
	// must decrement the server's preempting counter when it finishes.
	preempted bool
}

// Server is an MCAM server entity behind a connection manager: it admits
// control connections up to a bound, serves each over the configured stack
// against one shared ServerEnv (the multiprocessor "server machine" of
// Fig. 2), tracks per-session lifecycle so entity resources are reclaimed
// when connections end, and supports graceful drain.
type Server struct {
	cfg   ServerConfig
	lis   *transport.Listener
	grace time.Duration
	// ownedStore is non-nil when NewServer built the movie store itself
	// (Env.Store was nil); it is closed after the last session unwinds.
	ownedStore io.Closer

	rt    *estelle.Runtime
	sched *estelle.Scheduler

	// ctl enforces the per-tenant QoS policy (always non-nil).
	ctl *qos.Controller
	// cache is the chunk cache behind a server-built disk store (nil
	// otherwise); Observe reads its hit rates.
	cache *moviedb.ChunkCache
	// registry is the server's metrics surface (always non-nil); the
	// /metrics endpoint serves it when MetricsAddr is configured.
	registry   *obsv.Registry
	metricsLis net.Listener
	metricsSrv *http.Server

	mu       sync.Mutex
	sessions map[int64]*srvSession
	nextID   int64
	closed   bool
	// preempting counts sessions marked preempted that have not yet
	// finished: they are excluded from the MaxSessions occupancy so each
	// preemption frees exactly one slot immediately, without ever letting
	// true occupancy exceed the bound by more than the teardown overlap.
	preempting int
	// drainCh is non-nil while a Drain waits for sessions; closed when the
	// last session finishes.
	drainCh chan struct{}
	peak    int64

	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	busy      atomic.Int64

	// wg counts the accept loop plus one token per admitted session,
	// released in finish.
	wg sync.WaitGroup
}

// NewServer creates and starts a server. With a non-empty cfg.Addr it
// listens for TPKT connections; with an empty Addr the server is in-memory
// only and sessions are fed through ServeConn (tests and the load harness).
func NewServer(cfg ServerConfig) (*Server, error) {
	return newServer(cfg, defaultTeardownGrace)
}

// newServer is NewServer with the teardown grace: how long a dead
// connection's entity may take to run its own release path before its
// streams are torn down forcibly.
func newServer(cfg ServerConfig, grace time.Duration) (*Server, error) {
	if cfg.Env == nil {
		// A nil Env is an empty one the server owns (browse/order-only
		// deployments); the store and totals are filled in below.
		cfg.Env = &mcam.ServerEnv{}
	}
	if cfg.Stack == 0 {
		cfg.Stack = StackGenerated
	}
	if cfg.Limits.MaxSessions <= 0 {
		cfg.Limits.MaxSessions = DefaultMaxSessions
	}
	var ownedStore io.Closer
	var ownedCache *moviedb.ChunkCache
	if cfg.Env.Store == nil {
		// The server builds (and owns) its store, durable under a data
		// directory and in memory otherwise, publishing it into the shared
		// Env so callers can seed the catalogue after NewServer returns.
		if cfg.DataDir == "" {
			cfg.Env.Store = moviedb.NewShardedStore(0)
		} else {
			// The cache is created here rather than inside the store so the
			// server can observe its hit rates (Observe, /metrics).
			ownedCache = moviedb.NewChunkCache(0)
			store, err := moviedb.OpenShardedDiskStore(cfg.DataDir, 0, moviedb.DiskConfig{Cache: ownedCache})
			if err != nil {
				return nil, err
			}
			cfg.Env.Store = store
			ownedStore = store
		}
	}
	if cfg.Env.StreamTotals == nil {
		// Every server aggregates its data-plane outcome counters so
		// operators (and the load harness) can read frames sent, dropped
		// and late across all sessions; callers may share their own
		// Totals across servers instead.
		cfg.Env.StreamTotals = &spa.Totals{}
	}
	s := &Server{
		cfg:        cfg,
		grace:      grace,
		sessions:   make(map[int64]*srvSession),
		ownedStore: ownedStore,
		cache:      ownedCache,
		registry:   obsv.NewRegistry(),
	}
	s.ctl = qos.NewController(cfg.Limits.QoS, s.qosEvent)
	s.registry.Register(s.collectMetrics)
	// A constructor failure past this point must release the store the
	// server just opened (disk stores hold file handles per movie).
	failed := func(err error) (*Server, error) {
		if ownedStore != nil {
			_ = ownedStore.Close()
			cfg.Env.Store = nil
		}
		return nil, err
	}
	if cfg.Stack == StackGenerated {
		s.rt = estelle.NewRuntime()
		opts := []estelle.SchedOption{}
		if cfg.Processors > 0 {
			opts = append(opts, estelle.WithProcessors(cfg.Processors))
		}
		// Connection-per-unit mapping, the paper's best configuration.
		s.sched = estelle.NewScheduler(s.rt, estelle.MapPerGroupRoot, opts...)
		if err := s.sched.Start(); err != nil {
			return failed(err)
		}
	}
	if cfg.MetricsAddr != "" {
		lis, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			if s.sched != nil {
				s.sched.Stop()
			}
			return failed(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", s.registry.Handler())
		s.metricsLis = lis
		s.metricsSrv = &http.Server{Handler: mux}
		go func() { _ = s.metricsSrv.Serve(lis) }()
	}
	if cfg.Addr != "" {
		lis, err := transport.Listen(cfg.Addr)
		if err != nil {
			if s.sched != nil {
				s.sched.Stop()
			}
			if s.metricsSrv != nil {
				_ = s.metricsSrv.Close()
			}
			return failed(err)
		}
		s.lis = lis
		s.wg.Add(1)
		go s.acceptLoop()
	}
	return s, nil
}

// qosEvent is the controller's decision sink: one JSON line per admission,
// rejection and preemption onto the configured QoSLog.
func (s *Server) qosEvent(ev qos.Event) {
	if s.cfg.QoSLog == nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	_, _ = s.cfg.QoSLog.Write(line)
}

// Env returns the server's environment — the one passed in ServerConfig,
// or the one the server built for a nil Env (seed its Store, read its
// StreamTotals).
func (s *Server) Env() *mcam.ServerEnv { return s.cfg.Env }

// Addr returns the bound listen address ("" for in-memory-only servers).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr()
}

// Runtime exposes the generated stack's runtime (nil for handcoded), for
// statistics.
func (s *Server) Runtime() *estelle.Runtime { return s.rt }

// sessionStats snapshots the connection-manager counters; Observe exposes
// them (Observation.Sessions) together with the stream, cache, delivery
// and per-tenant counters. (The exported Stats/StreamStats wrappers were
// deprecated for one release and are gone.)
func (s *Server) sessionStats() SessionStats {
	s.mu.Lock()
	active := int64(len(s.sessions))
	peak := s.peak
	s.mu.Unlock()
	return SessionStats{
		Accepted:  s.accepted.Load(),
		Rejected:  s.rejected.Load(),
		Completed: s.completed.Load(),
		Active:    active,
		Peak:      peak,
		Busy:      s.busy.Load(),
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		tenant := ""
		if s.cfg.TenantOf != nil {
			tenant = s.cfg.TenantOf(conn)
		}
		_ = s.ServeConnFor(conn, tenant) // rejected connections are closed inside
	}
}

// admit registers a new session under the admission bounds: the tenant's
// own quota first, then the server-wide MaxSessions — at which a
// higher-priority tenant evicts the lowest-priority (then youngest) active
// session of strictly lower priority instead of being refused. The
// session's wg token is taken here, under the same lock that Drain uses to
// set closed, so a draining server can never miss an in-flight session.
func (s *Server) admit(conn transport.Conn, tenant string) (*srvSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.rejected.Add(1)
		return nil, ErrServerClosed
	}
	grant, ok := s.ctl.Acquire(tenant)
	if !ok {
		s.rejected.Add(1)
		return nil, ErrTenantQuota
	}
	// Sessions already evicted for earlier preemptions are mid-teardown;
	// their replacements hold their slots, so they no longer occupy.
	if len(s.sessions)-s.preempting >= s.cfg.Limits.MaxSessions {
		victim := s.victimLocked(grant.Priority)
		if victim == nil {
			grant.CancelFull()
			s.rejected.Add(1)
			return nil, ErrServerFull
		}
		victim.preempted = true
		s.preempting++
		s.ctl.Preempt(grant, victim.grant, victim.id)
		// Closing the victim's transport starts its normal teardown path
		// (reaper → finish); the victim's client sees a severed
		// association.
		_ = victim.conn.Close()
	}
	s.nextID++
	sess := &srvSession{
		id:    s.nextID,
		conn:  conn,
		grant: grant,
	}
	s.sessions[sess.id] = sess
	if n := int64(len(s.sessions) - s.preempting); n > s.peak {
		s.peak = n
	}
	s.accepted.Add(1)
	grant.Confirm(sess.id)
	s.wg.Add(1)
	return sess, nil
}

// victimLocked picks the session a connection of priority prio may evict:
// the lowest-priority active session strictly below prio, youngest first
// among equals (the longest-served session is the last to go). Sessions
// already being preempted are skipped. Callers hold s.mu.
func (s *Server) victimLocked(prio int) *srvSession {
	var victim *srvSession
	for _, sess := range s.sessions {
		if sess.preempted || sess.grant == nil || sess.grant.Priority >= prio {
			continue
		}
		if victim == nil ||
			sess.grant.Priority < victim.grant.Priority ||
			(sess.grant.Priority == victim.grant.Priority && sess.id > victim.id) {
			victim = sess
		}
	}
	return victim
}

// finish retires a session: exactly once per admitted session.
func (s *Server) finish(sess *srvSession) {
	s.completed.Add(1)
	sess.grant.Release()
	s.mu.Lock()
	if sess.preempted {
		s.preempting--
	}
	delete(s.sessions, sess.id)
	if s.closed && len(s.sessions) == 0 && s.drainCh != nil {
		close(s.drainCh)
		s.drainCh = nil
	}
	s.mu.Unlock()
	s.wg.Done()
}

// ServeConn admits conn as a new session of the anonymous tenant "" (or
// the one TenantOf assigns) and serves it asynchronously over the
// configured stack. See ServeConnFor.
func (s *Server) ServeConn(conn transport.Conn) error {
	tenant := ""
	if s.cfg.TenantOf != nil {
		tenant = s.cfg.TenantOf(conn)
	}
	return s.ServeConnFor(conn, tenant)
}

// ServeConnFor admits conn as a new session of tenant and serves it
// asynchronously over the configured stack. It is the entry point for
// in-memory transports (pipes); the accept loop feeds TCP connections
// through the same path. A connection refused at the session limit or the
// tenant's quota is answered with StatusBusy and a retry-after hint by a
// short-lived responder instead of a raw close, so clients can back off
// deliberately; other admission failures close the connection. The
// admission error is returned either way.
func (s *Server) ServeConnFor(conn transport.Conn, tenant string) error {
	sess, err := s.admit(conn, tenant)
	if err != nil {
		if errors.Is(err, ErrServerFull) || errors.Is(err, ErrTenantQuota) {
			s.busy.Add(1)
			go func() { _ = mcam.ServeBusy(conn, s.cfg.Limits.BusyRetryAfter) }()
			return err
		}
		conn.Close()
		return err
	}
	sq := &mcam.SessionQoS{
		Tenant: sess.grant.Tenant,
		Totals: sess.grant.StreamTotals(),
	}
	if l := sess.grant.Limiter(); l != nil {
		// Uncapped tenants get a nil Throttle interface, not an interface
		// holding a nil *Limiter — the sender skips the per-frame call
		// entirely.
		sq.Throttle = l
	}
	if s.cfg.Stack == StackHandcoded {
		go func() {
			_ = mcam.ServeIsodeQoS(sess.conn, s.cfg.Env, sq)
			sess.conn.Close()
			s.finish(sess)
		}()
		return nil
	}
	hooks := mcam.ServerHooks{
		OnDead: sess.markDead,
		OnBody: func(f interface{ Shutdown() }) { sess.force = f },
		QoS:    sq,
	}
	gone := func(root *estelle.Instance) { s.transportGone(sess, root) }
	if _, err := s.rt.AddSystem(
		serverConnDef(s.cfg.Env, sess.conn, hooks, gone),
		fmt.Sprintf("conn%d", sess.id)); err != nil {
		sess.conn.Close()
		s.finish(sess)
		return err
	}
	return nil
}

// transportGone arms the session's reaper, which returns the entity subtree
// to the runtime. Orderly path: the client saw its release confirm before
// closing, the MCA is already Dead, and the reaper runs at once. Abrupt
// path: the disconnect indication reaches the MCA within a few passes and
// its OnDead fires the reaper early; if it never does, the grace expires
// and streams are torn down directly. Called once per session, on its
// unit's goroutine.
func (s *Server) transportGone(sess *srvSession, root *estelle.Instance) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	grace := s.grace
	if sess.dead {
		grace = 0
	}
	sess.reaper = time.AfterFunc(grace, func() {
		sess.mu.Lock()
		dead := sess.dead
		sess.mu.Unlock()
		if !dead && sess.force != nil {
			sess.force.Shutdown()
		}
		s.rt.Release(root)
		s.finish(sess)
	})
}

// markDead is the MCA's OnDead hook: it records the orderly end and, when
// the transport is already gone, fires the armed reaper now instead of at
// the end of the grace.
func (sess *srvSession) markDead() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.dead = true
	if sess.reaper != nil && sess.reaper.Stop() {
		sess.reaper.Reset(0)
	}
}

// Drain performs a graceful shutdown: stop admitting, give active sessions
// up to timeout to complete on their own, then force-close the remainder
// and tear the server down. Drain(0) is an immediate shutdown; Close is
// equivalent to it.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var drained chan struct{}
	if timeout > 0 && len(s.sessions) > 0 {
		drained = make(chan struct{})
		s.drainCh = drained
	}
	s.mu.Unlock()

	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	if s.metricsSrv != nil {
		_ = s.metricsSrv.Close()
	}
	if drained != nil {
		timer := time.NewTimer(timeout)
		select {
		case <-drained:
		case <-timer.C:
		}
		timer.Stop()
	}
	s.mu.Lock()
	s.drainCh = nil
	for _, sess := range s.sessions {
		_ = sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.sched != nil {
		s.sched.Stop()
	}
	if s.ownedStore != nil {
		if cerr := s.ownedStore.Close(); err == nil {
			err = cerr
		}
		// The store was published into the shared Env for seeding; a
		// successor server built over the same Env must construct a fresh
		// one rather than serve this closed store.
		s.cfg.Env.Store = nil
	}
	return err
}

// Close stops accepting and tears the server down immediately, force-closing
// any active sessions.
func (s *Server) Close() error { return s.Drain(0) }
