package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"xmovie/internal/core"
	"xmovie/internal/directory"
	"xmovie/internal/equipment"
	"xmovie/internal/estelle"
	"xmovie/internal/experiments"
	"xmovie/internal/isode"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/presentation"
	"xmovie/internal/spa"
	"xmovie/internal/timewheel"
	"xmovie/internal/transport"
)

// layerPhase times each internal package's public functions in isolation,
// on an otherwise idle process, after the traced workload phases. Every
// repetition is a span; a metric is the median over repetitions of time per
// unit of work.
type layerPhase struct {
	w      *world
	fx     *fixture
	tr     *tracer
	outDir string
	values map[string]float64
	pairs  []exchange // one request/reply pair per step of the control cycle
	list   exchange
}

type exchange struct {
	req  *mcam.Request
	resp *mcam.Response
}

const layerReps = 5

// bench runs fn layerReps times; fn does n units of work and returns how
// long they took. The metric is in ns per unit, or µs when the name says so.
func (lp *layerPhase) bench(metric string, fn func() (time.Duration, int, error)) error {
	per := make([]float64, 0, layerReps)
	for rep := 0; rep < layerReps; rep++ {
		start := nowNs()
		el, n, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", metric, err)
		}
		lp.tr.add(metric, fmt.Sprintf("n=%d", n), -1, start, start+int64(el))
		per = append(per, float64(el)/float64(n))
	}
	lp.set(metric, median(per))
	return nil
}

// set stores a nanosecond figure under metric, scaled to the unit its name
// ends in.
func (lp *layerPhase) set(metric string, ns float64) {
	if strings.Contains(metric, "_us") {
		ns /= 1e3
	}
	lp.values[metric] = ns
}

func timed(n int, fn func(i int) error) (time.Duration, int, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), n, nil
}

func (lp *layerPhase) run() error {
	steps := []func() error{
		lp.exchanges, lp.codecs, lp.hotPaths, lp.transports, lp.handler, lp.estelle,
		lp.stores, lp.disk, lp.directories, lp.streamLayers, lp.wheel, lp.misc,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// exchanges collects one real request/reply pair per control-cycle step by
// running a cycle against a hand-coded server on the fixture.
func (lp *layerPhase) exchanges() error {
	srvEnd, cliEnd := transport.Pipe(0)
	env := &mcam.ServerEnv{Store: lp.fx.store, DUA: lp.fx.dua, DirBase: lp.fx.base}
	done := make(chan error, 1)
	go func() { done <- mcam.ServeIsode(srvEnd, env) }()
	cli, err := mcam.DialIsode(cliEnd, "mcam-server")
	if err != nil {
		return err
	}
	cat := lp.fx.cat
	name := privateName(99, 0)
	reqs := []*mcam.Request{
		{Op: mcam.OpSelect, Movie: cat[1].name},
		{Op: mcam.OpQueryAttributes},
		{Op: mcam.OpSeek, Position: 7},
		{Op: mcam.OpDeselect},
		{Op: mcam.OpCreate, Movie: name, Format: int64(moviedb.FormatMJPEG), FrameRate: 25, Attrs: privateCreateAttrs},
		{Op: mcam.OpModifyAttributes, Movie: name, Attrs: privateModifyAttrs},
		{Op: mcam.OpQueryAttributes, Movie: name},
		{Op: mcam.OpDelete, Movie: name},
		{Op: mcam.OpListMovies},
	}
	for i, req := range reqs {
		resp, err := cli.Call(req)
		if err != nil {
			return err
		}
		if !resp.OK() {
			return fmt.Errorf("fixture %s: %s", req.Op, resp.Status)
		}
		if i == len(reqs)-1 {
			lp.list = exchange{req, resp}
		} else {
			lp.pairs = append(lp.pairs, exchange{req, resp})
		}
	}
	if err := cli.Close(); err != nil {
		return err
	}
	return <-done
}

// leafMeans times each codec leaf of one exchange over n iterations and
// returns mean ns per call.
func leafMeans(rp *replayer, ex exchange, n int) (out [numLeaves]float64) {
	rp.req, rp.resp = ex.req, ex.resp
	for k := leafKind(0); k < numLeaves; k++ {
		if k == leafStore || k == leafDirectory {
			continue
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			rp.do(k)
		}
		out[k] = float64(time.Since(start)) / float64(n)
	}
	return out
}

func (lp *layerPhase) codecs() error {
	rp := newReplayer(lp.fx)
	const n = 2000
	leafMetric := map[leafKind]string{
		leafPPDUAppendReq: "presentation.ppdu_append_ns", leafPPDUAppendResp: "presentation.ppdu_append_ns",
		leafPPDUDecodeReq: "presentation.ppdu_decode_ns", leafPPDUDecodeResp: "presentation.ppdu_decode_ns",
		leafSPDUEncodeReq: "session.spdu_encode_ns", leafSPDUEncodeResp: "session.spdu_encode_ns",
		leafSPDUParseReq: "session.spdu_parse_ns", leafSPDUParseResp: "session.spdu_parse_ns",
	}
	reps := make(map[string][]float64)
	for rep := 0; rep < layerReps; rep++ {
		sums := make(map[string]float64)
		start := nowNs()
		for _, ex := range lp.pairs {
			means := leafMeans(rp, ex, n/len(lp.pairs))
			for k, metric := range leafMetric {
				sums[metric] += means[k]
			}
		}
		end := nowNs()
		for metric, s := range sums {
			// Each metric averages both directions of every exchange.
			reps[metric] = append(reps[metric], s/float64(2*len(lp.pairs)))
			lp.tr.add(metric, "cycle", -1, start, end)
		}
	}
	for metric, vs := range reps {
		lp.set(metric, median(vs))
	}
	if rp.err != nil {
		return rp.err
	}

	// The 1024-name List reply.
	rp.req, rp.resp = lp.list.req, lp.list.resp
	rp.do(leafPDUAppendResp)
	big := append([]byte(nil), rp.pdu...)
	if err := lp.bench("mcam.list_decode_us", func() (time.Duration, int, error) {
		return timed(20, func(int) error { _, err := mcam.Decode(big); return err })
	}); err != nil {
		return err
	}
	return lp.bench("mtp.marshal_header_ns", func() (time.Duration, int, error) {
		p := mtp.Packet{StreamID: 7, Seq: 1, TSMicro: 10000, Payload: make([]byte, 64)}
		var buf []byte
		return timed(100000, func(i int) error {
			var err error
			p.Seq = uint32(i)
			buf, err = p.MarshalHeader(buf[:0])
			return err
		})
	})
}

// hotPathFrames is the stream length of experiments' MTP hot paths (its
// hotFrames).
const hotPathFrames = 64

// hotPaths takes the send-select-fire step, the PDU codec and the MTP sender
// and receiver from the repository's own hot-path benchmarks
// (experiments.HotPaths, the numbers cmd/mcambench tracks), so that there is
// one copy of those loops.
func (lp *layerPhase) hotPaths() error {
	start := nowNs()
	results := experiments.HotPaths()
	lp.tr.add("experiments.hot_paths", fmt.Sprintf("n=%d", len(results)), -1, start, nowNs())
	for _, r := range results {
		switch r.Name {
		case "sendselectfire": // one step fires two transitions
			lp.values["estelle.fire_ns"] = r.NsPerOp / 2
		case "pduencode":
			lp.values["mcam.pdu_append_ns"] = r.NsPerOp
		case "pdudecode":
			lp.values["mcam.pdu_decode_ns"] = r.NsPerOp
			lp.values["mcam.pdu_decode_allocs"] = float64(r.AllocsPerOp)
		case "mtpsendvec":
			lp.values["mtp.sender_ns_per_frame"] = r.NsPerOp / hotPathFrames
		case "mtprecv":
			lp.values["mtp.receiver_ns_per_frame"] = r.NsPerOp / hotPathFrames
		}
	}
	return nil
}

// transports times an echo over the pipe, over an isode association on a
// pipe, over an unshaped netsim link, and the opening of an association on
// the workload's own server.
func (lp *layerPhase) transports() error {
	payload := make([]byte, 64)
	if err := lp.bench("transport.pipe_rtt_us", func() (time.Duration, int, error) {
		a, b := transport.Pipe(0)
		defer a.Close()
		go func() {
			for {
				p, err := b.Recv()
				if err != nil || b.Send(p) != nil {
					return
				}
			}
		}()
		return timed(2000, func(int) error {
			if err := a.Send(payload); err != nil {
				return err
			}
			_, err := a.Recv()
			return err
		})
	}); err != nil {
		return err
	}
	if err := lp.bench("isode.data_rtt_us", func() (time.Duration, int, error) {
		srvEnd, cliEnd := transport.Pipe(0)
		srvDone := make(chan error, 1)
		go func() {
			prov, _, err := isode.Accept(srvEnd, func(*presentation.CP) isode.AcceptDecision {
				return isode.AcceptDecision{Accept: true}
			})
			for err == nil {
				var id int64
				var data []byte
				if id, data, err = prov.RecvData(); err == nil {
					err = prov.Data(id, data)
				}
			}
			if errors.Is(err, isode.ErrReleased) {
				err = prov.AcceptRelease()
			}
			srvDone <- err
		}()
		prov, _, err := isode.Connect(cliEnd, "bench",
			[]presentation.Context{{ID: mcam.ContextID, AbstractSyntax: mcam.AbstractSyntax}}, nil)
		if err != nil {
			return 0, 0, err
		}
		el, n, err := timed(2000, func(int) error {
			if err := prov.Data(mcam.ContextID, payload); err != nil {
				return err
			}
			_, _, err := prov.RecvData()
			return err
		})
		if err == nil {
			err = prov.Release(nil)
		}
		if err == nil {
			err = <-srvDone
		}
		return el, n, err
	}); err != nil {
		return err
	}
	if err := lp.bench("netsim.transit_us", func() (time.Duration, int, error) {
		a, b, link := netsim.NewPerfectLink()
		defer link.Close()
		return timed(2000, func(int) error {
			if err := a.Send(payload); err != nil {
				return err
			}
			_, err := b.Recv()
			return err
		})
	}); err != nil {
		return err
	}
	return lp.bench("core.assoc_open_us", func() (time.Duration, int, error) {
		var open time.Duration
		const n = 8
		for i := 0; i < n; i++ {
			srvEnd, cliEnd := transport.Pipe(0)
			start := time.Now()
			if err := lp.w.srv.ServeConn(srvEnd); err != nil {
				return 0, 0, err
			}
			cli, err := core.NewClientConn(cliEnd, core.ClientConfig{Stack: lp.w.wl.stack, CallTimeout: callTimeout})
			if err != nil {
				return 0, 0, err
			}
			open += time.Since(start)
			if err := cli.Close(); err != nil {
				return 0, 0, err
			}
		}
		return open, n, nil
	})
}

// tapConn records what the client side of an association sends.
type tapConn struct {
	transport.Conn
	sent [][]byte
}

func (t *tapConn) Send(p []byte) error {
	t.sent = append(t.sent, append([]byte(nil), p...))
	return t.Conn.Send(p)
}

// scriptConn feeds a recorded association to a server on the calling
// goroutine: connect, the same request n times, release. With no peer and
// no goroutine hand-off, what ServeIsode spends per request is the
// server-side stack and handler alone.
type scriptConn struct {
	connect, request, release []byte
	n, i                      int
	first, last               int64 // harness clock when the first request and the release were handed out
}

func (s *scriptConn) Recv() ([]byte, error) {
	s.i++
	switch {
	case s.i == 1:
		return s.connect, nil
	case s.i <= s.n+1:
		if s.i == 2 {
			s.first = nowNs()
		}
		return s.request, nil
	case s.i == s.n+2:
		s.last = nowNs()
		return s.release, nil
	}
	return nil, transport.ErrClosed
}

func (s *scriptConn) Send([]byte) error { return nil }
func (s *scriptConn) Close() error      { return nil }

// handler measures mcam.handler_self_us: ServeIsode's time per request on
// a scripted connection, minus the codec and store calls it makes.
func (lp *layerPhase) handler() error {
	env := &mcam.ServerEnv{Store: lp.fx.store}
	srvEnd, cliEnd := transport.Pipe(0)
	done := make(chan error, 1)
	go func() { done <- mcam.ServeIsode(srvEnd, env) }()
	tap := &tapConn{Conn: cliEnd}
	cli, err := mcam.DialIsode(tap, "mcam-server")
	if err != nil {
		return err
	}
	req := &mcam.Request{Op: mcam.OpQueryAttributes, Movie: lp.fx.scratch}
	resp, err := cli.Call(req)
	if err != nil {
		return err
	}
	if err := cli.Close(); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	if len(tap.sent) != 3 {
		return fmt.Errorf("recorded %d client messages, want connect, request, release", len(tap.sent))
	}
	ex := exchange{req, resp}

	// The leaves a server runs: request up the stack, store, reply down.
	serverLeaves := []leafKind{leafSPDUParseReq, leafPPDUDecodeReq, leafPDUDecodeReq, leafStore,
		leafPDUAppendResp, leafPPDUAppendResp, leafSPDUEncodeResp}
	const n = 2000
	rp := newReplayer(lp.fx)
	type serveRep struct{ first, last int64 }
	var reps []serveRep
	var serve []float64
	var leafMin [numLeaves]float64
	for rep := 0; rep < layerReps; rep++ {
		sc := &scriptConn{connect: tap.sent[0], request: tap.sent[1], release: tap.sent[2], n: n}
		if err := mcam.ServeIsode(sc, env); err != nil {
			return fmt.Errorf("scripted ServeIsode: %w", err)
		}
		reps = append(reps, serveRep{sc.first, sc.last})
		serve = append(serve, float64(sc.last-sc.first)/n)
		means := leafMeans(rp, ex, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			rp.do(leafStore)
		}
		means[leafStore] = float64(time.Since(start)) / n
		// A layer's cost is its fastest repetition: what is left of the
		// slower ones is the host, not the layer.
		for _, k := range serverLeaves {
			if rep == 0 || means[k] < leafMin[k] {
				leafMin[k] = means[k]
			}
		}
	}
	perReq := median(append([]float64(nil), serve...))
	children := 0.0
	for _, k := range serverLeaves {
		children += leafMin[k]
	}
	if children > perReq {
		children = perReq
	}
	lp.set("mcam.handler_self_us", perReq-children)
	// One span tree for the trace: the median repetition and its leaves.
	for i, v := range serve {
		if v != perReq && i < len(serve)-1 {
			continue
		}
		root := lp.tr.add("mcam.serve_isode", fmt.Sprintf("query n=%d", n), -1, reps[i].first, reps[i].last)
		at := reps[i].first
		for _, k := range serverLeaves {
			d := int64(leafMin[k] * n)
			if at+d > reps[i].last {
				d = reps[i].last - at
			}
			lp.tr.add(leafNames[k], "query", root, at, at+d)
			at += d
		}
		break
	}
	return rp.err
}

var tokChannel = &estelle.ChannelDef{
	Name: "BenchTok", RoleA: "left", RoleB: "right",
	ByRole: map[string][]estelle.MsgDef{"left": {{Name: "Tok"}}, "right": {{Name: "Tok"}}},
}

// echoDef bounces Tok back until budget is spent, then closes done.
func echoDef(role string, budget *atomic.Int64, done chan struct{}) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "BenchEcho-" + role, Attr: estelle.SystemProcess,
		IPs:    []estelle.IPDef{{Name: "P", Channel: tokChannel, Role: role}},
		States: []string{"Idle"},
		Trans: []estelle.Trans{{Name: "echo", When: estelle.On("P", "Tok"), Action: func(ctx *estelle.Ctx) {
			if budget.Add(-1) > 0 {
				ctx.Output("P", "Tok")
			} else if budget.Load() == 0 {
				close(done)
			}
		}}},
	}
}

func echoPair(budget *atomic.Int64, done chan struct{}) (*estelle.Runtime, *estelle.Instance, error) {
	rt := estelle.NewRuntime()
	l, err := rt.AddSystem(echoDef("left", budget, done), "l")
	if err != nil {
		return nil, nil, err
	}
	r, err := rt.AddSystem(echoDef("right", budget, done), "r")
	if err != nil {
		return nil, nil, err
	}
	return rt, l, rt.Connect(l.IP("P"), r.IP("P"))
}

// estelle times a token bounced between two scheduler units and a
// generated-stack Call minus the codec and store work it contains.
func (lp *layerPhase) estelle() error {
	if err := lp.bench("estelle.sched_echo_ns", func() (time.Duration, int, error) {
		const n = 20000
		var budget atomic.Int64
		budget.Store(n)
		done := make(chan struct{})
		rt, l, err := echoPair(&budget, done)
		if err != nil {
			return 0, 0, err
		}
		sched := estelle.NewScheduler(rt, estelle.MapPerSystem)
		if err := sched.Start(); err != nil {
			return 0, 0, err
		}
		defer sched.Stop()
		start := time.Now()
		l.IP("P").Inject("Tok")
		select {
		case <-done:
		case <-time.After(callTimeout):
			return 0, 0, errors.New("scheduler echo did not finish")
		}
		return time.Since(start), n, nil
	}); err != nil {
		return err
	}

	srv, err := core.NewServer(core.ServerConfig{Stack: core.StackGenerated, Env: &mcam.ServerEnv{Store: lp.fx.store}})
	if err != nil {
		return err
	}
	defer srv.Close()
	srvEnd, cliEnd := transport.Pipe(0)
	if err := srv.ServeConn(srvEnd); err != nil {
		return err
	}
	cli, err := core.NewClientConn(cliEnd, core.ClientConfig{Stack: core.StackGenerated, CallTimeout: callTimeout})
	if err != nil {
		return err
	}
	defer cli.Close()
	req := &mcam.Request{Op: mcam.OpQueryAttributes, Movie: lp.fx.scratch}
	resp, err := cli.Call(req)
	if err != nil {
		return err
	}
	rp := newReplayer(lp.fx)
	means := leafMeans(rp, exchange{req, resp}, 2000)
	start := time.Now()
	for i := 0; i < 2000; i++ {
		rp.do(leafStore)
	}
	children := float64(time.Since(start)) / 2000
	for _, m := range means {
		children += m
	}
	var h hist
	for i := 0; i < 2000; i++ {
		t := nowNs()
		if _, err := cli.Call(req); err != nil {
			return err
		}
		e := nowNs()
		h.record(e - t)
		if i%64 == 0 {
			lp.tr.add("estelle.stack", "query", -1, t, e)
		}
	}
	lp.set("estelle.stack_self_us", h.quantile(0.5)-children)
	return rp.err
}

// stores times the catalogue operations on the fixture's sharded memory
// store and batch reads from a materialised movie.
func (lp *layerPhase) stores() error {
	st, cat := lp.fx.store, lp.fx.cat
	if err := lp.bench("moviedb.get_ns", func() (time.Duration, int, error) {
		return timed(20000, func(i int) error { _, err := st.Get(cat[i%len(cat)].name); return err })
	}); err != nil {
		return err
	}
	updates := moviedb.Attributes{"location": "bench", "title": "scratch-2", "year": ""}
	if err := lp.bench("moviedb.setattrs_ns", func() (time.Duration, int, error) {
		return timed(20000, func(int) error { return st.SetAttrs(lp.fx.scratch, updates) })
	}); err != nil {
		return err
	}
	if err := lp.bench("moviedb.list_us", func() (time.Duration, int, error) {
		return timed(50, func(int) error { st.List(); return nil })
	}); err != nil {
		return err
	}
	if err := lp.bench("moviedb.create_delete_us", func() (time.Duration, int, error) {
		m := &moviedb.Movie{Name: privateName(98, 0), Format: moviedb.FormatMJPEG, FrameRate: 25,
			Attrs: moviedb.Attributes{"title": "scratch"}}
		return timed(5000, func(int) error {
			if err := st.Create(m); err != nil {
				return err
			}
			return st.Delete(m.Name)
		})
	}); err != nil {
		return err
	}
	mem := moviedb.NewMemStore()
	if err := mem.Create(moviedb.Synthesize(moviedb.SynthConfig{Name: "resident", Frames: 3600,
		FrameRate: streamFPS, FrameSize: 1024})); err != nil {
		return err
	}
	return lp.bench("moviedb.mem_nextbatch_ns_per_frame", func() (time.Duration, int, error) {
		m, err := mem.Get("resident")
		if err != nil {
			return 0, 0, err
		}
		src := m.Open()
		defer src.Close()
		bs, ok := src.(mtp.BatchSource)
		if !ok {
			return 0, 0, errors.New("memory source does not batch")
		}
		frames := 0
		start := time.Now()
		for {
			b := bs.NextBatch(32)
			if len(b) == 0 {
				break
			}
			frames += len(b)
		}
		return time.Since(start), frames, nil
	})
}

// disk times uncached chunk loads and live appends on a disk store of the
// harness's own.
func (lp *layerPhase) disk() error {
	dir, err := os.MkdirTemp(lp.outDir, "layer-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// A one-byte cache admits no chunk: every load reads the segment file.
	ds, err := moviedb.OpenDiskStore(dir, moviedb.DiskConfig{Cache: moviedb.NewChunkCache(1)})
	if err != nil {
		return err
	}
	defer ds.Close()
	const frames = 512
	if err := ds.Create(moviedb.SynthesizeLazy(moviedb.SynthConfig{Name: "cold", Frames: frames,
		FrameRate: streamFPS, FrameSize: 2048})); err != nil {
		return err
	}
	if err := lp.bench("moviedb.disk_chunk_load_us", func() (time.Duration, int, error) {
		m, err := ds.Get("cold")
		if err != nil {
			return 0, 0, err
		}
		src := m.Open()
		defer src.Close()
		return timed(frames/moviedb.DefaultChunkFrames, func(i int) error {
			if err := src.SeekTo(int64(i * moviedb.DefaultChunkFrames)); err != nil {
				return err
			}
			_, err := src.Next()
			return err
		})
	}); err != nil {
		return err
	}
	if err := ds.Create(&moviedb.Movie{Name: "tape", Format: moviedb.FormatMJPEG, FrameRate: liveFPS}); err != nil {
		return err
	}
	batch, err := equipment.NewCamera("cam-layer", 2048).Capture(recordBatch)
	if err != nil {
		return err
	}
	if err := lp.bench("moviedb.append_us_per_frame", func() (time.Duration, int, error) {
		rec, err := ds.Record("tape")
		if err != nil {
			return 0, 0, err
		}
		defer rec.Close()
		el, n, err := timed(20, func(int) error { _, err := rec.Append(batch); return err })
		return el, n * recordBatch, err
	}); err != nil {
		return err
	}
	return lp.liveEdge(ds, batch)
}

// liveEdge measures moviedb.live_edge_lag_p50_us: a reader waits at the
// live edge of a movie being recorded, and the lag is the time from an
// Append of one record batch being issued to the reader holding the batch's
// last frame — the fsync and the publish, without the stream behind them.
func (lp *layerPhase) liveEdge(ds *moviedb.DiskStore, batch [][]byte) error {
	rec, err := ds.Record("tape")
	if err != nil {
		return err
	}
	defer rec.Close()
	m, err := ds.Get("tape")
	if err != nil {
		return err
	}
	src := m.Open()
	defer src.Close()
	if err := src.SeekTo(rec.Len()); err != nil {
		return err
	}
	const appends = 40
	arrived := make(chan int64, appends) // the reader's clock at each batch's last frame
	readErr := make(chan error, 1)
	go func() {
		for i := 0; i < appends*len(batch); i++ {
			if _, err := src.Next(); err != nil {
				readErr <- err
				return
			}
			if (i+1)%len(batch) == 0 {
				arrived <- nowNs()
			}
		}
	}()
	lags := make([]int64, 0, appends)
	for i := 0; i < appends; i++ {
		issued := nowNs()
		if _, err := rec.Append(batch); err != nil {
			return err
		}
		select {
		case at := <-arrived:
			lags = append(lags, at-issued)
			lp.tr.add("moviedb.live_edge_lag", "append", -1, issued, at)
		case err := <-readErr:
			return fmt.Errorf("live-edge reader: %w", err)
		case <-time.After(callTimeout):
			return errors.New("live-edge reader saw no frame")
		}
	}
	lp.set("moviedb.live_edge_lag_p50_us", exactQuantile(lags, 0.5))
	return nil
}

func (lp *layerPhase) directories() error {
	dn := lp.fx.base.Child("cn", lp.fx.scratch)
	set := map[string][]string{"location": {"bench"}, "title": {"scratch-2"}}
	if err := lp.bench("directory.modify_us", func() (time.Duration, int, error) {
		return timed(5000, func(int) error { return lp.fx.dua.Modify(dn, set, []string{"year"}) })
	}); err != nil {
		return err
	}
	return lp.bench("directory.search_us", func() (time.Duration, int, error) {
		return timed(20, func(int) error {
			hits, err := lp.fx.dua.Search(lp.fx.base, directory.ScopeSubtree, directory.Eq("year", "1990"))
			if err == nil && len(hits) == 0 {
				err = errors.New("directory search found nothing")
			}
			return err
		})
	})
}

// streamLayers times the SPA's stream start and stop and a batched send on
// a loopback UDP socket.
func (lp *layerPhase) streamLayers() error {
	const frames = 3600
	mv := moviedb.Synthesize(moviedb.SynthConfig{Name: "layer", Frames: frames, FrameRate: streamFPS, FrameSize: 1024})
	content := moviedb.SliceContent(mv.Frames)

	sim := spa.NewSimNet()
	defer sim.Close()
	end, err := sim.Listen("layer", netsim.Config{})
	if err != nil {
		return err
	}
	go func() { // drain, so the simulated path's queue never fills
		for {
			if _, err := end.Recv(); err != nil {
				return
			}
		}
	}()
	events := make(chan spa.Event, 16) // started and terminal events of one stream at a time
	agent := spa.New(spa.Config{Dialer: sim, Events: func(e spa.Event) { events <- e }})
	defer agent.Drain()
	await := func(kind spa.EventKind) error {
		select {
		case e := <-events:
			if e.Kind != kind {
				return fmt.Errorf("spa event %d, want %d", e.Kind, kind)
			}
			return nil
		case <-time.After(callTimeout):
			return errors.New("no spa event")
		}
	}
	var stop []float64
	if err := lp.bench("spa.play_us", func() (time.Duration, int, error) {
		var play, stopped time.Duration
		const n = 50
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			start := time.Now()
			if err := agent.Play(id, "layer", content.Open(), spa.PlayOptions{FrameRate: streamFPS}); err != nil {
				return 0, 0, err
			}
			if err := await(spa.EventStarted); err != nil {
				return 0, 0, err
			}
			play += time.Since(start)
			start = time.Now()
			if _, err := agent.Stop(id); err != nil {
				return 0, 0, err
			}
			if err := await(spa.EventAborted); err != nil {
				return 0, 0, err
			}
			stopped += time.Since(start)
		}
		stop = append(stop, float64(stopped)/n)
		return play, n, nil
	}); err != nil {
		return err
	}
	lp.set("spa.stop_us", median(stop))

	lis, err := mtp.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	go func() {
		for {
			if _, err := lis.Recv(); err != nil {
				return
			}
		}
	}()
	conn, err := mtp.DialUDP(lis.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	batch := make([]mtp.PacketVec, 8)
	for i := range batch {
		hdr, err := (&mtp.Packet{StreamID: 1, Seq: uint32(i), Payload: mv.Frames[i]}).MarshalHeader(nil)
		if err != nil {
			return err
		}
		batch[i] = mtp.PacketVec{Hdr: hdr, Payload: mv.Frames[i]}
	}
	return lp.bench("mtp.udp_sendbatch_us", func() (time.Duration, int, error) {
		return timed(200, func(int) error { return conn.SendBatch(batch) })
	})
}

// wheel measures how late the shared pacing wheel wakes a waiter.
func (lp *layerPhase) wheel() error {
	const d = 2500 * time.Microsecond
	var h hist
	w := timewheel.Default()
	start := nowNs()
	for i := 0; i < 200; i++ {
		t := time.Now()
		w.Wait(d, nil)
		h.record(int64(time.Since(t) - d))
	}
	lp.tr.add("timewheel.wait", fmt.Sprintf("d=%v n=200", d), -1, start, nowNs())
	lp.set("timewheel.wait_skew_p50_us", h.quantile(0.5))
	lp.set("timewheel.wait_skew_p99_us", h.quantile(0.99))
	return nil
}

func (lp *layerPhase) misc() error {
	cam := equipment.NewCamera("cam-layer", 2048)
	if err := lp.bench("equipment.capture_us_per_frame", func() (time.Duration, int, error) {
		el, n, err := timed(100, func(int) error { _, err := cam.Capture(recordBatch); return err })
		return el, n * recordBatch, err
	}); err != nil {
		return err
	}
	runtime.GC()
	return nil
}
