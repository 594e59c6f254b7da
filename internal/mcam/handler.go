package mcam

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xmovie/internal/directory"
	"xmovie/internal/equipment"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/spa"
)

// ServerEnv bundles the services one MCAM server association operates on —
// the MCA's view of Fig. 1: the movie database (via the SPS), the movie
// directory (via a DUA) and the equipment control system (via an EUA).
type ServerEnv struct {
	Store moviedb.Store
	// Dialer opens MTP paths for Play; nil disables streaming.
	Dialer StreamDialer
	// DUA, when non-nil, mirrors movie attributes into the directory under
	// DirBase.
	DUA     *directory.DUA
	DirBase directory.DN
	// EUA, when non-nil, serves Record captures.
	EUA *equipment.EUA
	// StreamWindow, when > 0, enables MTP's credit-based adaptive delivery
	// for every play: at most StreamWindow frames in flight beyond the
	// receiver's reported progress, with congested frames dropped at their
	// deadlines. Requires receivers that emit feedback
	// (mtp.ReceiverConfig.FeedbackEvery); 0 keeps the send-everything
	// behaviour.
	StreamWindow int
	// StreamTotals, when non-nil, accumulates finished streams' data-plane
	// counters across every association sharing this environment.
	StreamTotals *spa.Totals
	// StreamReadTimeout bounds each storage read feeding a stream's pacing
	// loop (0 = unbounded): a read that misses the bound degrades that one
	// stream with a skipped frame (FlagSkip) instead of wedging its sender
	// on a slow or failed store. Live-edge waits stay unbounded — they are
	// cancellable already.
	StreamReadTimeout time.Duration
}

// SessionQoS is one association's quality-of-service binding, resolved by
// the connection manager at admission from its tenant policy: the tenant
// identity, the tenant's shared bandwidth throttle (nil = uncapped) and the
// tenant's stream-outcome accumulator. The handler threads both into its
// Stream Provider Agent, so every stream the association plays draws from
// the tenant's budget and books into the tenant's counters. A nil
// *SessionQoS means no QoS binding (the pre-tenant behaviour).
type SessionQoS struct {
	Tenant   string
	Throttle mtp.Throttle
	Totals   *spa.Totals
}

// handler executes MCAM requests against a ServerEnv. One handler serves
// one association; it owns the association's Stream Provider Agent,
// recording sessions and selection state.
type handler struct {
	env *ServerEnv
	spa *spa.Agent
	// selected tracks the movie opened by Select (MCAM's access model:
	// control operations address the selected movie).
	selected string
	nextID   int64
	// mu guards recs: this association's open recording sessions, keyed by
	// the client-chosen stream id (OpRecord with StreamID != 0 opens one;
	// OpStop closes it). Touched from the request path and from close().
	mu   sync.Mutex
	recs map[int64]*recSession
	// closeOnce makes close idempotent: the association's own release path
	// and the connection manager's forced teardown may both reach it.
	closeOnce sync.Once
}

// recSession is one open live recording: repeated OpRecords with the same
// StreamID append through one Recorder, keeping the movie live (readable
// at its growing tail) until OpStop seals it.
type recSession struct {
	movie string
	rec   moviedb.Recorder
}

// newHandler creates the per-association handler; events receives stream
// lifecycle notifications and must be safe to call from stream goroutines.
// qos, when non-nil, binds the association's streams to its tenant's
// bandwidth cap and counters.
func newHandler(env *ServerEnv, qos *SessionQoS, events func(Event)) *handler {
	h := &handler{env: env, nextID: 1}
	cfg := spa.Config{
		Dialer:      env.Dialer,
		Events:      func(e spa.Event) { events(convertEvent(e)) },
		Window:      env.StreamWindow,
		Totals:      env.StreamTotals,
		ReadTimeout: env.StreamReadTimeout,
	}
	if qos != nil {
		cfg.Throttle = qos.Throttle
		cfg.TenantTotals = qos.Totals
	}
	h.spa = spa.New(cfg)
	return h
}

// close releases the association's resources: recording sessions seal
// (tailing viewers drain to the final frame) and the SPA stops its
// streams. Safe to call more than once and from goroutines other than the
// association's own.
func (h *handler) close() {
	h.closeOnce.Do(func() {
		h.mu.Lock()
		recs := h.recs
		h.recs = nil
		h.mu.Unlock()
		for _, rs := range recs {
			_ = rs.rec.Close()
		}
		h.spa.Drain()
	})
}

func fail(req *Request, st Status, format string, args ...any) *Response {
	return &Response{
		InvokeID:   req.InvokeID,
		Op:         req.Op,
		Status:     st,
		Diagnostic: fmt.Sprintf(format, args...),
	}
}

func ok(req *Request) *Response {
	return &Response{InvokeID: req.InvokeID, Op: req.Op, Status: StatusSuccess}
}

// storeStatus maps store errors onto MCAM statuses.
func storeStatus(err error) Status {
	switch {
	case errors.Is(err, moviedb.ErrNotFound):
		return StatusNoSuchMovie
	case errors.Is(err, moviedb.ErrExists):
		return StatusMovieExists
	case errors.Is(err, moviedb.ErrLive):
		// A live broadcast is in progress: a state the client can change
		// (stop the recording) and retry, not a capability miss.
		return StatusBadState
	default:
		return StatusBadState
	}
}

// execute runs one request and produces its response.
func (h *handler) execute(req *Request) *Response {
	switch req.Op {
	case OpCreate:
		return h.create(req)
	case OpDelete:
		return h.delete(req)
	case OpSelect:
		return h.selectMovie(req)
	case OpDeselect:
		// Deselect follows the same access model every other control op
		// enforces: without a selection there is nothing to deselect.
		if h.selected == "" {
			return fail(req, StatusNotSelected, "no movie selected")
		}
		h.selected = ""
		return ok(req)
	case OpQueryAttributes:
		return h.query(req)
	case OpModifyAttributes:
		return h.modify(req)
	case OpListMovies:
		resp := ok(req)
		resp.Movies = h.env.Store.List()
		return resp
	case OpPlay:
		return h.play(req)
	case OpRecord:
		return h.record(req)
	case OpPause:
		if err := h.spa.Pause(req.StreamID); err != nil {
			return fail(req, StatusStreamError, "%v", err)
		}
		return ok(req)
	case OpResume:
		if err := h.spa.Resume(req.StreamID); err != nil {
			return fail(req, StatusStreamError, "%v", err)
		}
		return ok(req)
	case OpStop:
		// A stream id names either a play stream or a recording session;
		// recording sessions are this association's own, checked first.
		if rs := h.takeRecording(req.StreamID); rs != nil {
			pos := rs.rec.Len()
			_ = rs.rec.Close()
			resp := ok(req)
			resp.Position = pos
			return resp
		}
		pos, err := h.spa.Stop(req.StreamID)
		if err != nil {
			return fail(req, StatusStreamError, "%v", err)
		}
		resp := ok(req)
		resp.Position = pos
		return resp
	case OpSeek:
		return h.seek(req)
	default:
		return fail(req, StatusProtocolError, "unknown operation %d", req.Op)
	}
}

func (h *handler) create(req *Request) *Response {
	if req.Movie == "" {
		return fail(req, StatusProtocolError, "create without movie name")
	}
	attrs := make(moviedb.Attributes, len(req.Attrs))
	for _, a := range req.Attrs {
		attrs[a.Name] = a.Value
	}
	frameRate := int(req.FrameRate)
	if frameRate == 0 {
		frameRate = 25
	}
	m := &moviedb.Movie{
		Name:      req.Movie,
		Format:    moviedb.Format(req.Format),
		FrameRate: frameRate,
		Attrs:     attrs,
	}
	if err := h.env.Store.Create(m); err != nil {
		return fail(req, storeStatus(err), "%v", err)
	}
	if err := h.mirrorToDirectory(req.Movie, attrs, true); err != nil {
		return fail(req, StatusDirectoryError, "%v", err)
	}
	return ok(req)
}

func (h *handler) delete(req *Request) *Response {
	// The store arbitrates deletion: a live broadcast (open recording
	// session, any association) refuses with ErrLive → StatusBadState,
	// while plays of a sealed movie keep streaming their open sources —
	// readable-while-appendable makes a play-vs-delete registry
	// unnecessary.
	if err := h.env.Store.Delete(req.Movie); err != nil {
		return fail(req, storeStatus(err), "%v", err)
	}
	if h.selected == req.Movie {
		h.selected = ""
	}
	if h.env.DUA != nil {
		_ = h.env.DUA.Remove(h.movieDN(req.Movie)) // directory is advisory
	}
	return ok(req)
}

func (h *handler) selectMovie(req *Request) *Response {
	m, err := h.env.Store.Info(req.Movie)
	if err != nil {
		return fail(req, storeStatus(err), "%v", err)
	}
	h.selected = m.Name
	resp := ok(req)
	resp.Length = m.Length
	resp.FrameRate = int64(m.FrameRate)
	return resp
}

// target resolves the movie a request addresses: explicit name or current
// selection.
func (h *handler) target(req *Request) (string, *Response) {
	if req.Movie != "" {
		return req.Movie, nil
	}
	if h.selected == "" {
		return "", fail(req, StatusNotSelected, "no movie selected")
	}
	return h.selected, nil
}

func (h *handler) query(req *Request) *Response {
	name, errResp := h.target(req)
	if errResp != nil {
		return errResp
	}
	m, err := h.env.Store.Info(name)
	if err != nil {
		return fail(req, storeStatus(err), "%v", err)
	}
	resp := ok(req)
	// The snapshot is sorted by name already, as the response lists them.
	if len(m.Attrs) > 0 {
		resp.Attrs = make([]Attr, len(m.Attrs))
		for i, a := range m.Attrs {
			resp.Attrs[i] = Attr(a)
		}
	}
	resp.Length = m.Length
	resp.FrameRate = int64(m.FrameRate)
	return resp
}

func (h *handler) modify(req *Request) *Response {
	name, errResp := h.target(req)
	if errResp != nil {
		return errResp
	}
	updates := make(moviedb.Attributes, len(req.Attrs))
	for _, a := range req.Attrs {
		updates[a.Name] = a.Value
	}
	if err := h.env.Store.SetAttrs(name, updates); err != nil {
		return fail(req, storeStatus(err), "%v", err)
	}
	if err := h.mirrorToDirectory(name, updates, false); err != nil {
		return fail(req, StatusDirectoryError, "%v", err)
	}
	return ok(req)
}

func (h *handler) play(req *Request) *Response {
	name, errResp := h.target(req)
	if errResp != nil {
		return errResp
	}
	m, err := h.env.Store.Get(name)
	if err != nil {
		return fail(req, storeStatus(err), "%v", err)
	}
	if req.StreamAddr == "" {
		return fail(req, StatusProtocolError, "play without streamAddr")
	}
	id := req.StreamID
	if id == 0 {
		id = h.nextID
		h.nextID++
	}
	// The play path is lazy end to end: the movie is opened as a
	// FrameSource (one chunk window resident for lazy content, no
	// materialization) and handed to the SPA, which paces it over MTP. A
	// source opened on a recording movie follows the live tail; a delete
	// racing this open either refuses (movie still live) or leaves the
	// source streaming its snapshot — no re-check needed.
	src := m.Open()
	if err := h.spa.Play(id, req.StreamAddr, src, spa.PlayOptions{
		FrameRate: m.FrameRate,
		From:      req.Position,
		Count:     req.Count,
	}); err != nil {
		return fail(req, StatusStreamError, "%v", err)
	}
	resp := ok(req)
	resp.StreamID = id
	resp.Length = m.FrameCount()
	resp.FrameRate = int64(m.FrameRate)
	return resp
}

// record captures frames from the equipment and appends them to the
// movie. With StreamID == 0 (the historical form) it is a one-shot
// session: the movie is live only for the duration of the call. With
// StreamID != 0 it opens — or continues — a persistent recording session
// under that id: the movie stays live between calls, concurrent plays
// follow its growing tail, and OpStop (with the same id) seals it.
func (h *handler) record(req *Request) *Response {
	name, errResp := h.target(req)
	if errResp != nil {
		return errResp
	}
	if h.env.EUA == nil {
		return fail(req, StatusEquipmentError, "server has no equipment control")
	}
	if req.Device == "" {
		return fail(req, StatusProtocolError, "record without device")
	}
	count := int(req.Count)
	if count <= 0 {
		count = 25
	}
	var rec moviedb.Recorder
	if req.StreamID != 0 {
		rs, resp := h.recording(req, name)
		if resp != nil {
			return resp
		}
		rec = rs.rec
	} else {
		r, err := h.env.Store.Record(name)
		if err != nil {
			return fail(req, storeStatus(err), "%v", err)
		}
		defer r.Close()
		rec = r
	}
	frames, err := h.env.EUA.Capture(req.Device, count)
	if err != nil {
		return fail(req, StatusEquipmentError, "%v", err)
	}
	n, err := rec.Append(frames)
	if err != nil {
		return fail(req, storeStatus(err), "%v", err)
	}
	resp := ok(req)
	resp.StreamID = req.StreamID
	resp.Length = n
	return resp
}

// recording returns the open session for req.StreamID, opening one on its
// first use. A session is pinned to its movie: re-using the id against a
// different movie is a state error.
func (h *handler) recording(req *Request, name string) (*recSession, *Response) {
	h.mu.Lock()
	rs, ok := h.recs[req.StreamID]
	h.mu.Unlock()
	if ok {
		if rs.movie != name {
			return nil, fail(req, StatusBadState,
				"recording session %d is on movie %q", req.StreamID, rs.movie)
		}
		return rs, nil
	}
	r, err := h.env.Store.Record(name)
	if err != nil {
		return nil, fail(req, storeStatus(err), "%v", err)
	}
	rs = &recSession{movie: name, rec: r}
	h.mu.Lock()
	if h.recs == nil {
		h.recs = make(map[int64]*recSession)
	}
	h.recs[req.StreamID] = rs
	h.mu.Unlock()
	// Keep auto-assigned play ids clear of client-chosen recording ids, so
	// an OpStop can never address both namespaces at once.
	if req.StreamID >= h.nextID {
		h.nextID = req.StreamID + 1
	}
	return rs, nil
}

// takeRecording removes and returns the session registered under id, or
// nil.
func (h *handler) takeRecording(id int64) *recSession {
	h.mu.Lock()
	defer h.mu.Unlock()
	rs, ok := h.recs[id]
	if ok {
		delete(h.recs, id)
	}
	return rs
}

func (h *handler) seek(req *Request) *Response {
	// Seek on an active stream is live: the SPA repositions the running
	// transmission in place and the MTP sync flag resynchronizes the
	// receiver — no stop/replay round trip.
	if req.StreamID != 0 {
		err := h.spa.SeekStream(req.StreamID, req.Position)
		if err == nil {
			resp := ok(req)
			resp.Position = req.Position
			return resp
		}
		if !errors.Is(err, spa.ErrNoStream) {
			return fail(req, StatusBadState, "%v", err)
		}
		// Stream already finished: fall through to the stateless
		// position check so the client can replay from there.
	}
	name, errResp := h.target(req)
	if errResp != nil {
		return errResp
	}
	m, err := h.env.Store.Info(name)
	if err != nil {
		return fail(req, storeStatus(err), "%v", err)
	}
	if req.Position < 0 || req.Position > m.Length {
		return fail(req, StatusBadState, "position %d outside 0..%d", req.Position, m.Length)
	}
	resp := ok(req)
	resp.Position = req.Position
	return resp
}

func (h *handler) movieDN(name string) directory.DN {
	return h.env.DirBase.Child("cn", name)
}

// movieClass is the objectClass of a movie's directory entry.
var movieClass = []string{"movie"}

// mirrorToDirectory writes movie attributes into the directory, in one
// write when the directory agrees with the store: a create adds the entry,
// a modify modifies it. Each falls back to the other where the directory
// disagrees — an entry left over from before, or one never made — and an
// add that loses a race to another add modifies instead.
func (h *handler) mirrorToDirectory(name string, attrs moviedb.Attributes, create bool) error {
	if h.env.DUA == nil {
		return nil
	}
	dn := h.movieDN(name)
	set := make(map[string][]string, len(attrs)+1)
	var del []string
	for k, v := range attrs {
		if v == "" {
			del = append(del, k)
		} else {
			set[k] = []string{v}
		}
	}
	if !create {
		if err := h.env.DUA.Modify(dn, set, del); !errors.Is(err, directory.ErrNoSuchEntry) {
			return err
		}
	}
	set["objectClass"] = movieClass
	err := h.env.DUA.Add(&directory.Entry{DN: dn, Attrs: set})
	if !errors.Is(err, directory.ErrEntryExists) {
		return err
	}
	delete(set, "objectClass")
	return h.env.DUA.Modify(dn, set, del)
}
