package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmovie"
	"xmovie/internal/core"
	"xmovie/internal/directory"
	"xmovie/internal/equipment"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
)

// workload fixes everything about one named workload that is not derived
// from the seed.
type workload struct {
	name  string
	stack core.StackKind
	// ctl workloads run the closed control loop (phase A) and then the
	// viewer script on an idle server (phase B); stream workloads run one
	// streaming phase with an open-loop generator on association 0.
	ctl bool
	// disk selects the disk backend and real UDP with receiver feedback, and
	// turns association 0 from a browser into a recorder.
	disk      bool
	movies    int // streamable movies; the last one is the viewers'
	frameSize int
	steady    int // steady streams
}

const (
	streamFPS = 100
	// Steady streams run at 97 fps: a frame period that is no whole number of
	// pacing-wheel ticks, nor a divisor of the browse, record and viewer
	// periods. At 100 fps every frame of a run meets the tick, and every
	// scheduled call meets the frames, at one fixed phase, another one each
	// run: frame_lateness_p50_us then sat at anything from 1.09 to 1.50 ms for
	// a whole run (spread 8-14% over ten runs; 2.5% at 97 fps), and the calls'
	// latencies moved with it. The viewers' movie (the last one) stays at
	// 100 fps: the script's dwells are whole milliseconds, and a seek is only
	// timed alike every cycle when the frame period is too.
	steadyFPS   = 97
	liveFPS     = streamFPS // the live movie drains a 10-frame record just inside the record period
	recordBatch = 10
	// The open-loop generator on association 0: one browse op every 20 ms
	// (stream-paced) or one Record every 100 ms (stream-disk).
	browsePeriod = 20 * time.Millisecond
	recordPeriod = 100 * time.Millisecond
	cameraName   = "cam1"
	liveMovie    = "st-live"
	recordID     = 900000 // the persistent recording session's stream id
	cacheBytes   = 8 << 20
	callTimeout  = 20 * time.Second
	// The paced warm-up: a fixed frame count at a fixed rate. It also keeps
	// setup_s above a second, where it repeats; a 25 ms set-up did not.
	warmStreamCtl = 600 * time.Millisecond
	// The closed loop's warm-up, in control cycles per association.
	warmCycles = 1024
	warmStream = 1000 * time.Millisecond
)

var workloads = []*workload{
	{name: "ctl-handcoded", stack: core.StackHandcoded, ctl: true, movies: 3, frameSize: 1024, steady: 16},
	{name: "ctl-generated", stack: core.StackGenerated, ctl: true, movies: 3, frameSize: 1024, steady: 16},
	{name: "stream-paced", stack: core.StackHandcoded, movies: 5, frameSize: 1024, steady: 16},
	{name: "stream-disk", stack: core.StackGenerated, disk: true, movies: 9, frameSize: 2048, steady: 16},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// streamMovie is a playable movie and the CRC-32C of each of its frames,
// computed at set-up from moviedb.Synthesize — the reference every
// delivered frame is checked against.
type streamMovie struct {
	name   string
	frames int
	rate   int
	crc    []uint32
}

// world is one set-up of a workload: store, directory, equipment, server,
// associations and stream endpoints, warmed up and ready to be measured.
type world struct {
	wl      *workload
	seed    int64
	seconds int

	host   *hostSteal // nil during set-up: only measured phases are gated
	dir    string     // disk store directory ("" for memory)
	store  *moviedb.ShardedStore
	cache  *moviedb.ChunkCache
	sim    *xmovie.SimNet
	srv    *xmovie.Server
	assocs []*assoc

	cat      []catMovie
	movies   []*streamMovie
	live     *streamMovie // the recorded movie: CRCs of a twin camera's frames
	listWant []string

	endpoints []*endpoint
	// delivered counts every frame any receiver was handed; the round
	// coordinator reads it for cpu_us_per_frame.
	delivered atomic.Int64
	nextID    atomic.Int64 // stream ids, unique per Play
	// received sums the receivers' packet counts over finished plays; on
	// SimNet it must equal what the server says it sent.
	received atomic.Int64
	recorded int // record batches appended to the live movie (association 0 only)

	// Steady-stream and follower frames the senders played, and how many of
	// them were dropped or did not arrive in order with the right payload.
	framesPlayed, framesFailed int64
	fx                         *fixture // traced runs only

	errMu sync.Mutex
	errs  []string
}

// fail records an output-check violation (kept to a few lines; the count
// is in the failed-operation total).
func (w *world) fail(format string, args ...any) {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	if len(w.errs) < 8 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

func (w *world) streamFrames() int {
	n := streamFPS * (w.seconds + 8)
	if n < 3600 {
		n = 3600
	}
	return n
}

// buildWorld performs one complete set-up: seed the store (and, on ctl
// workloads, the directory), start the server, open C associations and the
// stream endpoints, and run the fixed warm-up.
func buildWorld(wl *workload, seed int64, seconds int, outDir string) (w *world, err error) {
	w = &world{wl: wl, seed: seed, seconds: seconds}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if wl.disk {
		w.dir, err = os.MkdirTemp(outDir, "store-")
		if err != nil {
			return w, err
		}
		w.cache = moviedb.NewChunkCache(cacheBytes)
		w.store, err = moviedb.OpenShardedDiskStore(w.dir, 0, moviedb.DiskConfig{Cache: w.cache})
		if err != nil {
			return w, err
		}
	} else {
		w.store = xmovie.NewShardedStore(0)
	}
	env := &xmovie.ServerEnv{Store: w.store}
	var names []string

	if wl.ctl {
		w.cat = genCatalogue(seed, catalogueSize)
		dsa := directory.NewDSA("bench", directory.MustParseDN("c=DE/o=bench"))
		env.DUA = directory.NewDUA(dsa)
		env.DirBase = dsa.Context()
		for i := range w.cat {
			m := &w.cat[i]
			attrs := make(moviedb.Attributes, len(m.attrs))
			dir := map[string][]string{"objectClass": {"movie"}}
			for _, a := range m.attrs {
				attrs[a.Name] = a.Value
				dir[a.Name] = []string{a.Value}
			}
			cfg := moviedb.SynthConfig{Name: m.name, Frames: m.frames, FrameRate: m.rate, FrameSize: 256}
			if err = w.store.Create(&moviedb.Movie{Name: m.name, Format: moviedb.FormatMJPEG,
				FrameRate: m.rate, Attrs: attrs, Content: moviedb.NewSynthContent(cfg)}); err != nil {
				return w, err
			}
			if err = env.DUA.Add(&directory.Entry{DN: env.DirBase.Child("cn", m.name), Attrs: dir}); err != nil {
				return w, err
			}
			names = append(names, m.name)
		}
	}

	tag := newRNG(seed, 7).next() & 0xfffff
	for i := 0; i < wl.movies; i++ {
		sm := &streamMovie{name: fmt.Sprintf("st-%05x-%d", tag, i), frames: w.streamFrames(), rate: streamFPS}
		if i < wl.movies-1 {
			sm.rate = steadyFPS
		}
		mv := moviedb.Synthesize(moviedb.SynthConfig{Name: sm.name, Format: moviedb.FormatMJPEG,
			Frames: sm.frames, FrameRate: sm.rate, FrameSize: wl.frameSize})
		sm.crc = make([]uint32, len(mv.Frames))
		for j, f := range mv.Frames {
			sm.crc[j] = crc32.Checksum(f, castagnoli)
		}
		if err = w.store.Create(mv); err != nil {
			return w, err
		}
		w.movies = append(w.movies, sm)
		names = append(names, sm.name)
	}
	if wl.disk {
		eca := equipment.NewECA("bench")
		if err = eca.Register(equipment.NewCamera(cameraName, wl.frameSize)); err != nil {
			return w, err
		}
		env.EUA = equipment.NewEUA(eca, "mcam-server")
		// No credit window (ServerEnv.StreamWindow): with one, a sender drops
		// every frame that is more than a frame period overdue, and on a busy
		// host the guest stands still for longer than that a dozen times a
		// run. A dropped frame is a failed operation, and a benchmark whose
		// runs fail with the weather measures nothing. Receivers still report
		// every 8 frames and senders still process the reports.
		env.Dialer = xmovie.UDPDialer()
		if err = w.store.Create(&moviedb.Movie{Name: liveMovie, Format: moviedb.FormatMJPEG, FrameRate: liveFPS}); err != nil {
			return w, err
		}
		names = append(names, liveMovie)
		// A twin of the server's camera yields the frames Record will
		// capture, in order: the live follower is verified against them.
		total := recordBatch * (int(time.Duration(seconds+4)*time.Second/recordPeriod) + 64)
		twin, cerr := equipment.NewCamera(cameraName, wl.frameSize).Capture(total)
		if cerr != nil {
			return w, cerr
		}
		w.live = &streamMovie{name: liveMovie, frames: total, rate: liveFPS, crc: make([]uint32, total)}
		for j, f := range twin {
			w.live.crc[j] = crc32.Checksum(f, castagnoli)
		}
	} else {
		w.sim = xmovie.NewSimNet()
		env.Dialer = w.sim
	}
	sort.Strings(names)
	w.listWant = names

	w.srv, err = xmovie.ListenAndServe(xmovie.ServerConfig{Stack: wl.stack, Env: env})
	if err != nil {
		return w, err
	}
	for i := 0; i < associations; i++ {
		a, aerr := w.openAssoc(i)
		if aerr != nil {
			return w, aerr
		}
		w.assocs = append(w.assocs, a)
	}
	// One endpoint per steady stream, one per interactive stream, and one
	// for the live follower.
	for i := 0; i < wl.steady+associations+1; i++ {
		ep, eerr := w.listen(fmt.Sprintf("ep-%d", i))
		if eerr != nil {
			return w, eerr
		}
		w.endpoints = append(w.endpoints, ep)
	}
	return w, w.warmUp()
}

// listen opens one stream endpoint — a SimNet path or a loopback UDP
// socket — and starts its receiver.
func (w *world) listen(name string) (*endpoint, error) {
	ep := &endpoint{w: w, plays: make(chan *play, 1)}
	if w.wl.disk {
		l, err := listenUDP()
		if err != nil {
			return nil, err
		}
		ep.addr, ep.conn, ep.stop = l.c.LocalAddr().String(), l, func() { l.c.Close() }
		ep.feedbackEvery = 8
	} else {
		end, err := w.sim.Listen(name, netsim.Config{})
		if err != nil {
			return nil, err
		}
		// SimNet.Close tears the link down and unblocks the receiver.
		ep.addr, ep.conn, ep.stop = name, end, func() {}
	}
	ep.wg.Add(1)
	go ep.run()
	return ep, nil
}

// udpReceiver is a stream endpoint on loopback UDP: mtp.ListenUDP with a
// receive buffer of the harness's choosing. After the guest has stood still
// for a second (seen once in a hundred runs) sixteen senders make up for it
// with a hundred frames each, back to back, while the receivers wait for a
// P; the default buffer holds sixty, the rest were lost, and a lost frame
// fails the run.
type udpReceiver struct {
	c    *net.UDPConn
	buf  []byte
	peer *net.UDPAddr
}

const udpReceiveBuffer = 4 << 20

func listenUDP() (*udpReceiver, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	if err := c.SetReadBuffer(udpReceiveBuffer); err != nil {
		c.Close()
		return nil, err
	}
	return &udpReceiver{c: c, buf: make([]byte, mtp.HeaderSize+mtp.MaxPayload)}, nil
}

// Recv implements mtp.PacketConn, learning the peer from inbound traffic.
func (u *udpReceiver) Recv() ([]byte, error) {
	n, peer, err := u.c.ReadFromUDP(u.buf)
	if err != nil {
		return nil, err
	}
	u.peer = peer
	return u.buf[:n], nil
}

// Send implements mtp.PacketConn toward the learned peer (feedback).
func (u *udpReceiver) Send(p []byte) error {
	if u.peer == nil {
		return errors.New("no peer learned yet")
	}
	_, err := u.c.WriteToUDP(p, u.peer)
	return err
}

// close tears one set-up down completely: associations, server, links,
// sockets, store and the store's directory.
func (w *world) close() {
	for _, a := range w.assocs {
		_ = a.cli.Close()
	}
	if w.srv != nil {
		_ = w.srv.Close()
	}
	if w.sim != nil {
		w.sim.Close()
	}
	for _, ep := range w.endpoints {
		ep.stop()
		close(ep.plays)
		ep.wg.Wait()
	}
	if w.store != nil {
		_ = w.store.Close()
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

// assoc is one MCAM association and the goroutine-owned state of the
// client driving it. Everything a measured loop touches is built here, at
// set-up: requests, expected answers, histograms.
type assoc struct {
	w   *world
	id  int
	cli *core.Client
	// events carries stream notifications: the generated stack's own
	// channel, or one fed by the hand-coded client's OnEvent hook.
	events    <-chan mcam.Event
	terminals map[int64]mcam.Event
	timer     *time.Timer

	script []cycleSpec
	cursor int // next op of the closed loop

	selectReq   []*mcam.Request
	querySel    *mcam.Request
	seekReq     *mcam.Request
	deselectReq *mcam.Request
	listReq     *mcam.Request
	createReq   []*mcam.Request
	modifyReq   []*mcam.Request
	queryPriv   []*mcam.Request
	deleteReq   []*mcam.Request
	ctlReq      mcam.Request // scratch for stream control calls

	attempted, failed int64
}

func (w *world) openAssoc(id int) (*assoc, error) {
	srvEnd, cliEnd := xmovie.Pipe()
	if err := w.srv.ServeConn(srvEnd); err != nil {
		return nil, err
	}
	cli, err := core.NewClientConn(cliEnd, core.ClientConfig{Stack: w.wl.stack, CallTimeout: callTimeout})
	if err != nil {
		return nil, err
	}
	a := &assoc{w: w, id: id, cli: cli, terminals: make(map[int64]mcam.Event, 64),
		timer: time.NewTimer(time.Hour)}
	a.timer.Stop()
	if iso := cli.Iso(); iso != nil {
		// The hand-coded client hands events that arrive inside a Call to
		// OnEvent only; queue them for awaitTerminal.
		ch := make(chan mcam.Event, 256) // a run's worth of stream events for one association
		iso.OnEvent = func(e mcam.Event) {
			select {
			case ch <- e:
			default:
			}
		}
		a.events = ch
	} else {
		a.events = cli.App().Events()
	}
	a.querySel = &mcam.Request{Op: mcam.OpQueryAttributes}
	a.seekReq = &mcam.Request{Op: mcam.OpSeek}
	a.deselectReq = &mcam.Request{Op: mcam.OpDeselect}
	a.listReq = &mcam.Request{Op: mcam.OpListMovies}
	if w.wl.ctl {
		a.script = genScript(w.seed, id, w.cat)
		for i := range w.cat {
			a.selectReq = append(a.selectReq, &mcam.Request{Op: mcam.OpSelect, Movie: w.cat[i].name})
		}
		for k := 0; k < privatePerAs; k++ {
			name := privateName(id, k)
			a.createReq = append(a.createReq, &mcam.Request{Op: mcam.OpCreate, Movie: name,
				Format: int64(moviedb.FormatMJPEG), FrameRate: 25, Attrs: privateCreateAttrs})
			a.modifyReq = append(a.modifyReq, &mcam.Request{Op: mcam.OpModifyAttributes, Movie: name, Attrs: privateModifyAttrs})
			a.queryPriv = append(a.queryPriv, &mcam.Request{Op: mcam.OpQueryAttributes, Movie: name})
			a.deleteReq = append(a.deleteReq, &mcam.Request{Op: mcam.OpDelete, Movie: name})
		}
	} else {
		for _, m := range w.movies {
			a.selectReq = append(a.selectReq, &mcam.Request{Op: mcam.OpSelect, Movie: m.name})
		}
	}
	return a, nil
}

// awaitTerminal blocks until stream id's completed/aborted event has
// arrived on this association (events of other streams are kept for their
// own waiters).
func (a *assoc) awaitTerminal(id int64, timeout time.Duration) (mcam.Event, error) {
	deadline := time.Now().Add(timeout)
	for {
		if ev, ok := a.terminals[id]; ok {
			delete(a.terminals, id)
			return ev, nil
		}
		select {
		case ev := <-a.events:
			a.keep(ev)
			continue
		default:
		}
		left := time.Until(deadline)
		if left <= 0 {
			return mcam.Event{}, fmt.Errorf("stream %d: no terminal event within %v", id, timeout)
		}
		if iso := a.cli.Iso(); iso != nil {
			// Reads the association; OnEvent queues what arrives.
			if _, err := iso.AwaitEventTimeout(left); err != nil {
				return mcam.Event{}, fmt.Errorf("stream %d: %w", id, err)
			}
			continue
		}
		a.timer.Reset(left)
		select {
		case ev := <-a.events:
			a.timer.Stop()
			a.keep(ev)
		case <-a.timer.C:
		}
	}
}

func (a *assoc) keep(ev mcam.Event) {
	if ev.Kind == mcam.EventStreamCompleted || ev.Kind == mcam.EventStreamAborted {
		a.terminals[ev.StreamID] = ev
	}
}
