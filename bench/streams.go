package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmovie/internal/mcam"
	"xmovie/internal/mtp"
)

// endpoint is one stream address and the receiver goroutine behind it.
// Plays arrive one at a time: a viewer reuses its endpoint for every cycle
// of the script, telling streams apart by their ids.
type endpoint struct {
	w             *world
	addr          string
	conn          mtp.PacketConn
	stop          func()
	feedbackEvery int
	plays         chan *play
	wg            sync.WaitGroup
}

func (e *endpoint) run() {
	defer e.wg.Done()
	for p := range e.plays {
		p.stats, p.err = mtp.ReceiveStream(e.conn,
			mtp.ReceiverConfig{ExpectedStreamID: uint32(p.id), FeedbackEvery: e.feedbackEvery}, p.deliver)
		e.w.received.Add(int64(p.stats.Received))
		close(p.done)
	}
}

type playKind uint8

const (
	playSteady playKind = iota
	playInteractive
	playFollower
)

// play is the receiving side of one Play: what the frames must look like
// and what was seen. The receiver goroutine owns the plain fields until
// done is closed; the atomics are how the viewer script learns of the
// first frame without taking part in its timing.
type play struct {
	w    *world
	id   int64
	kind playKind
	mv   *streamMovie
	from int64 // first frame requested

	next    int64 // next sequence number an in-order stream must deliver
	good    int64 // frames delivered in order with the right payload
	corrupt int64 // frames whose CRC-32C does not match the reference
	missing int64 // sequence numbers an in-order stream skipped (steady, follower)
	gapAt   int64 // first sequence number skipped, for the report

	firstAt    atomic.Int64 // harness clock at the first delivered frame
	seekTarget atomic.Int64 // -1, or the frame a pending SeekTo asked for
	seekAt     atomic.Int64 // harness clock at the first frame >= seekTarget
	sig        chan struct{}

	// Steady streams keep (arrival - Frame.TS) and the arrival time of
	// every frame in arrays sized at set-up; the per-stream minimum is
	// only known once the run is over.
	raw []int64
	at  []int64
	n   int

	stats mtp.RecvStats
	err   error
	done  chan struct{}
}

func (w *world) newPlay(kind playKind, mv *streamMovie, from int64, samples int) *play {
	p := &play{w: w, id: w.nextID.Add(1), kind: kind, mv: mv, from: from, next: from,
		sig: make(chan struct{}, 1), done: make(chan struct{})}
	p.seekTarget.Store(-1)
	if samples > 0 {
		p.raw = make([]int64, samples)
		p.at = make([]int64, samples)
	}
	return p
}

func (p *play) deliver(f mtp.Frame) {
	now := nowNs()
	seq := int64(f.Seq)
	ok := seq < int64(len(p.mv.crc)) && crc32.Checksum(f.Payload, castagnoli) == p.mv.crc[seq]
	if !ok {
		p.corrupt++
	}
	if p.kind != playInteractive {
		switch {
		case seq < p.next: // repeated or reordered
			ok = false
		case seq > p.next:
			if p.missing == 0 {
				p.gapAt = p.next
			}
			p.missing += seq - p.next
		}
		if seq >= p.next {
			p.next = seq + 1
		}
	}
	if ok {
		p.good++
	}
	p.w.delivered.Add(1)
	if p.firstAt.Load() == 0 {
		p.firstAt.Store(now)
		p.signal()
	}
	if t := p.seekTarget.Load(); t >= 0 && seq >= t && p.seekAt.Load() == 0 {
		p.seekAt.Store(now)
		p.signal()
	}
	if p.kind == playSteady && ok && p.n < len(p.raw) {
		p.raw[p.n], p.at[p.n] = now-int64(f.TS), now
		p.n++
	}
}

func (p *play) signal() {
	select {
	case p.sig <- struct{}{}:
	default:
	}
}

// waitFor blocks until load() turns non-zero or the timeout passes.
func (a *assoc) waitFor(p *play, load func() int64, timeout time.Duration) (int64, bool) {
	if v := load(); v != 0 {
		return v, true
	}
	a.timer.Reset(timeout)
	defer a.timer.Stop()
	for {
		select {
		case <-p.sig:
			if v := load(); v != 0 {
				return v, true
			}
		case <-a.timer.C:
			return load(), load() != 0
		}
	}
}

// extent is the stretch of time a round's counted events cover. Rates on
// scheduled work are counts over that stretch, not over the nominal round:
// the schedule fixes the counts, and a rate that reads the same to the last
// digit on every run says nothing.
type extent struct{ first, last int64 }

func (e *extent) cover(first, last int64) {
	if e.first == 0 || first < e.first {
		e.first = first
	}
	if last > e.last {
		e.last = last
	}
}

// rate returns events per second for n events spanning the extent.
func (e extent) rate(n int64) float64 {
	if n < 2 || e.last <= e.first {
		return 0
	}
	return float64(n-1) / (float64(e.last-e.first) / 1e9)
}

// roundClock cuts a measured phase into equal rounds.
type roundClock struct {
	t0, dur int64
	n       int
}

// idx returns the round ns falls into: -1 before the phase, n after it.
func (rc *roundClock) idx(ns int64) int {
	if ns < rc.t0 {
		return -1
	}
	if r := int((ns - rc.t0) / rc.dur); r < rc.n {
		return r
	}
	return rc.n
}

func (rc *roundClock) end() int64 { return rc.t0 + rc.dur*int64(rc.n) }

// spinUntil waits for an instant to sub-millisecond precision, which
// time.Sleep on an idle Go process cannot (it wakes on the netpoller's
// millisecond grid). Only used outside measured phases.
func spinUntil(ns int64) {
	sleepUntil(ns - int64(2*time.Millisecond))
	for nowNs() < ns {
		runtime.Gosched()
	}
}

func sleepUntil(ns int64) {
	if d := time.Duration(ns - nowNs()); d > 0 {
		time.Sleep(d)
	}
}

// sink is one association's measurement state for one phase, allocated
// before the phase starts. The closed loop, with its hundred thousand calls
// a second, records into a latency histogram and a count per round; a
// streaming phase, with its few dozen, keeps every call.
type sink struct {
	lat   []hist  // closed loop: per round
	count []int64 // closed loop: per round
	calls []callSample
	lag   hist // how late the open-loop generator issued its calls
	// startup and seek hold the viewer script's samples of the whole phase.
	startup []callSample
	seek    []callSample
	// A traced run replays calls of the odd rounds through the layers; the
	// even rounds of the same run are the untraced reference
	// harness.trace_overhead_pct compares against.
	tr      *tracer
	rp      *replayer
	sampled int64
}

// callSample is one control call of a streaming phase — or one first frame
// the viewer script waited for: when it completed and how long it took.
type callSample struct{ at, lat int64 }

// maxCallsPerSecond sizes a streaming phase's call buffer: the open loop
// issues 50 calls a second at most, a viewer 14.
const maxCallsPerSecond = 100

// newSinks allocates one sink per association: histograms for a closed loop
// of the given rounds, or (rounds 0) a call buffer for a streaming phase of
// the given length.
func (w *world) newSinks(rounds int, phase time.Duration, traced bool) []*sink {
	sinks := make([]*sink, len(w.assocs))
	for i := range sinks {
		s := &sink{lat: make([]hist, rounds), count: make([]int64, rounds)}
		if rounds == 0 {
			secs := int(phase/time.Second) + 1
			s.calls = make([]callSample, 0, secs*maxCallsPerSecond)
			s.startup = make([]callSample, 0, secs*4)
			s.seek = make([]callSample, 0, secs*4)
		}
		if traced {
			s.tr = newTracer(1 << 17)
			s.rp = newReplayer(w.fx)
		}
		sinks[i] = s
	}
	return sinks
}

// replay pushes a finished call of a traced round through the layers.
func (s *sink) replay(w *world, req *mcam.Request, resp *mcam.Response, start, end int64) {
	s.sampled++
	w.replayCall(s.tr, s.rp, req, resp, start, end)
}

// streamPlan describes one streaming phase. On a stream workload
// association 0 browses (or records, on disk) on a schedule, and the others
// share the steady streams and each run the viewer script; in phase B of a
// ctl workload association 0 holds the steady streams and every association
// runs the viewer script.
type streamPlan struct {
	rounds   int
	roundDur time.Duration
	traced   bool
}

// steadyOwner returns the association that plays steady stream i.
func (w *world) steadyOwner(i int) int {
	if w.wl.ctl {
		return 0
	}
	return 1 + i%(associations-1)
}

// streamRun is what one streaming phase produced.
type streamRun struct {
	plan     *streamPlan
	rc       roundClock
	sinks    []*sink
	steady   []*play
	follower *play
	cpu      []time.Duration // at each round boundary, rounds+1 entries
	frames   []int64         // delivered-frame counter at each boundary
	steal    []time.Duration // the host's steal time at each boundary
	ends     map[int64]streamEnd
	// goroutines is the most the process ran at any round boundary.
	goroutines int
}

// steadyMovie returns what steady stream i plays and from where: on disk,
// streams 2k and 2k+1 share movie k one second apart, so the trailing
// stream's chunk reads hit what the leading one loaded.
func (w *world) steadyMovie(i int) (*streamMovie, int64) {
	steady := w.movies[:len(w.movies)-1] // the last movie is the viewers'
	if w.wl.disk {
		if i%2 == 0 {
			return steady[(i/2)%len(steady)], steadyFPS
		}
		return steady[(i/2)%len(steady)], 0
	}
	return steady[i%len(steady)], 0
}

// runStreams executes one streaming phase: every association's goroutine
// starts its steady streams, then does its own job (viewer script,
// open-loop generator, or nothing) until the last round ends, then stops
// what it started. The calling goroutine only snapshots counters at round
// boundaries.
func (w *world) runStreams(plan *streamPlan) (*streamRun, error) {
	run := &streamRun{plan: plan, ends: make(map[int64]streamEnd)}
	perStream := int(plan.roundDur*time.Duration(plan.rounds)/time.Second+3) * streamFPS
	for i := 0; i < w.wl.steady; i++ {
		mv, from := w.steadyMovie(i)
		run.steady = append(run.steady, w.newPlay(playSteady, mv, from, perStream))
	}
	if w.wl.disk {
		run.follower = w.newPlay(playFollower, w.live, 0, 0)
	}
	run.sinks = w.newSinks(0, plan.roundDur*time.Duration(plan.rounds), plan.traced)

	// Steady streams start spread evenly over one frame period. Started
	// back to back, all sixteen would be due within the same timer tick of
	// every period, and their lateness would sample one phase of the pacing
	// wheel's tick jitter — a different one each run.
	stagger := int64(time.Second) / steadyFPS / int64(len(run.steady))
	startAt := nowNs() + int64(2*time.Millisecond)
	var started, finished sync.WaitGroup
	var playedMu sync.Mutex
	t0 := make(chan struct{})
	errs := make(chan error, len(w.assocs))
	started.Add(len(w.assocs))
	finished.Add(len(w.assocs))
	for _, a := range w.assocs {
		go func(a *assoc) {
			defer finished.Done()
			var mine []*play
			var err error
			for i, p := range run.steady {
				if w.steadyOwner(i) == a.id && err == nil {
					spinUntil(startAt + int64(i)*stagger)
					err = a.startPlay(w.endpoints[i], p)
					mine = append(mine, p)
				}
			}
			if a.id == 0 && run.follower != nil && err == nil {
				err = a.startFollower(w.endpoints[len(w.endpoints)-1], run.follower)
				mine = append(mine, run.follower)
			}
			started.Done()
			<-t0
			sink := run.sinks[a.id]
			switch {
			case err != nil:
			case a.id > 0 || w.wl.ctl:
				err = a.viewerLoop(&run.rc, sink, w.endpoints[w.wl.steady+a.id])
			case w.wl.disk:
				err = a.recordLoop(&run.rc, sink)
			default:
				err = a.browseLoop(&run.rc, sink)
			}
			for _, p := range mine {
				end, serr := a.finishPlay(p)
				if serr != nil && err == nil {
					err = serr
				}
				playedMu.Lock()
				run.ends[p.id] = end
				playedMu.Unlock()
			}
			if err != nil {
				errs <- fmt.Errorf("association %d: %w", a.id, err)
			}
		}(a)
	}
	started.Wait()
	// Streams are flowing; the first round starts once they have settled.
	run.rc = roundClock{t0: nowNs() + int64(100*time.Millisecond), dur: int64(plan.roundDur), n: plan.rounds}
	close(t0)
	for r := 0; r <= plan.rounds; r++ {
		sleepUntil(run.rc.t0 + int64(r)*run.rc.dur)
		run.cpu = append(run.cpu, cpuTime())
		run.frames = append(run.frames, w.delivered.Load())
		run.steal = append(run.steal, w.host.read())
		if g := runtime.NumGoroutine(); g > run.goroutines {
			run.goroutines = g
		}
	}
	finished.Wait()
	close(errs)
	return run, <-errs
}

// call issues one control call outside the closed loop and records its
// latency, counted from due (see awaitSlot) or, with due 0, from now.
func (a *assoc) call(req *mcam.Request, due int64, rc *roundClock, sink *sink) (*mcam.Response, error) {
	start := nowNs()
	resp, err := a.cli.Call(req)
	end := nowNs()
	a.attempted++
	if err != nil {
		a.failed++
		return nil, err
	}
	if due == 0 {
		due = start
	}
	if r := rc.idx(end); r >= 0 && r < rc.n {
		sink.calls = append(sink.calls, callSample{end, end - due})
		if sink.tr != nil && r%2 == 1 {
			sink.replay(a.w, req, resp, start, end)
		}
	}
	return resp, nil
}

// streamCall is call for stream-control ops: anything but success fails
// the operation.
func (a *assoc) streamCall(req *mcam.Request, rc *roundClock, sink *sink) (*mcam.Response, error) {
	resp, err := a.call(req, 0, rc, sink)
	if err != nil {
		return nil, err
	}
	if !resp.OK() {
		a.failed++
		return nil, fmt.Errorf("%s refused: %s %s", req.Op, resp.Status, resp.Diagnostic)
	}
	return resp, nil
}

// noRounds is the clock of calls made outside any measured phase.
var noRounds = roundClock{t0: math.MaxInt64}

// startPlay hands p to its endpoint's receiver and asks the server to
// play.
func (a *assoc) startPlay(ep *endpoint, p *play) error {
	ep.plays <- p
	req := &mcam.Request{Op: mcam.OpPlay, Movie: p.mv.name, StreamAddr: ep.addr, StreamID: p.id, Position: p.from}
	_, err := a.streamCall(req, &noRounds, nil)
	return err
}

// startFollower opens the recording session with one batch — the movie is
// live from here on — and plays it from its edge.
func (a *assoc) startFollower(ep *endpoint, p *play) error {
	if err := a.record(&noRounds, nil, 0); err != nil {
		return err
	}
	p.from = int64(a.w.recorded * recordBatch)
	p.next = p.from
	return a.startPlay(ep, p)
}

// streamEnd is the sender's account of a finished stream, from its
// terminal event: the sequence span it covered and the frames it sent or
// dropped. A stream stopped while a frame waits for its slot has consumed
// that frame from the source without playing it, so span can exceed
// sent+dropped by one.
type streamEnd struct {
	span, sent, dropped int64
}

// finishPlay stops a stream this association started, waits for its
// terminal event and its receiver, and returns the sender's account.
func (a *assoc) finishPlay(p *play) (streamEnd, error) {
	if p.kind == playFollower {
		// Sealing the recording ends the follower at the movie's last frame.
		req := &mcam.Request{Op: mcam.OpStop, StreamID: recordID}
		if _, err := a.streamCall(req, &noRounds, nil); err != nil {
			return streamEnd{}, err
		}
	} else {
		req := &mcam.Request{Op: mcam.OpStop, StreamID: p.id}
		if _, err := a.streamCall(req, &noRounds, nil); err != nil {
			return streamEnd{}, err
		}
	}
	ev, err := a.awaitTerminal(p.id, callTimeout)
	if err != nil {
		return streamEnd{}, err
	}
	select {
	case <-p.done:
	case <-time.After(callTimeout):
		return streamEnd{}, fmt.Errorf("stream %d: receiver saw no end of stream", p.id)
	}
	end := streamEnd{span: ev.Position - p.from}
	// The counters ride at the end of the event's detail string.
	if i := strings.LastIndex(ev.Detail, "sent="); i >= 0 {
		var late, bytes int64
		if _, err := fmt.Sscanf(ev.Detail[i:], "sent=%d dropped=%d late=%d bytes=%d", &end.sent, &end.dropped, &late, &bytes); err != nil {
			return end, fmt.Errorf("stream %d: terminal event %q: %w", p.id, ev.Detail, err)
		}
	} else {
		return end, fmt.Errorf("stream %d: terminal event %q carries no counters", p.id, ev.Detail)
	}
	return end, p.err
}

// Viewer script timing: Play -> first frame -> 100 ms -> SeekTo(half) ->
// first frame at/after the target -> 100 ms -> Pause -> 50 ms -> Resume ->
// 50 ms -> Stop -> terminal event. Cycles start on a fixed schedule, so
// the number of calls per round does not depend on how fast they return.
//
// The sender acts on a seek when the frame it is holding departs. A dwell
// of exactly ten frame periods would put the SeekTo within a timer tick of
// a departure, and seek_p50_us would flip between "this frame" (under a
// millisecond) and "the next" (a whole period) from run to run; so the
// first dwell is ten and a half frame periods (105 ms at 100 fps), and
// every seek waits half a period for the same departure.
const (
	viewerDwell       = 100 * time.Millisecond
	viewerPause       = 50 * time.Millisecond
	firstFrameTimeout = 5 * time.Second
	// One cycle dwells 300 ms by script; the rest is the calls themselves.
	viewerPeriod = 380 * time.Millisecond
)

func (a *assoc) viewerLoop(rc *roundClock, sink *sink, ep *endpoint) error {
	period := int64(viewerPeriod)
	mv := a.w.movies[len(a.w.movies)-1]
	// Viewers take turns: each starts its cycles a share of the period
	// after the one before. On a stream workload association 0 is no viewer.
	first := 1
	if a.w.wl.ctl {
		first = 0
	}
	offset := period * int64(a.id-first) / int64(associations-first)
	for k := int64(0); ; k++ {
		due := rc.t0 + offset + k*period
		if due+period > rc.end() {
			sleepUntil(rc.end())
			return nil
		}
		a.awaitSlot(due, sink)
		if err := a.viewerCycle(rc, sink, ep, mv); err != nil {
			return err
		}
	}
}

func (a *assoc) viewerCycle(rc *roundClock, sink *sink, ep *endpoint, mv *streamMovie) error {
	p := a.w.newPlay(playInteractive, mv, 0, 0)
	ep.plays <- p
	req := &a.ctlReq
	*req = mcam.Request{Op: mcam.OpPlay, Movie: mv.name, StreamAddr: ep.addr, StreamID: p.id}
	sent := nowNs()
	if _, err := a.streamCall(req, rc, sink); err != nil {
		return err
	}
	first, ok := a.waitFor(p, p.firstAt.Load, firstFrameTimeout)
	if !ok {
		a.failed++
		return fmt.Errorf("stream %d: no first frame", p.id)
	}
	if r := rc.idx(first); r >= 0 && r < rc.n {
		sink.startup = append(sink.startup, callSample{first, first - sent})
		if sink.tr != nil {
			sink.tr.add("spa.play_to_first_frame", "play", -1, sent, first)
		}
	}
	time.Sleep(time.Second * 21 / 2 / time.Duration(mv.rate))

	target := int64(mv.frames / 2)
	p.seekTarget.Store(target)
	*req = mcam.Request{Op: mcam.OpSeek, StreamID: p.id, Position: target}
	sent = nowNs()
	if _, err := a.streamCall(req, rc, sink); err != nil {
		return err
	}
	at, ok := a.waitFor(p, p.seekAt.Load, firstFrameTimeout)
	if !ok {
		a.failed++
		return fmt.Errorf("stream %d: no frame after seek", p.id)
	}
	if r := rc.idx(at); r >= 0 && r < rc.n {
		sink.seek = append(sink.seek, callSample{at, at - sent})
		if sink.tr != nil {
			sink.tr.add("spa.seek_to_first_frame", "seek", -1, sent, at)
		}
	}
	time.Sleep(viewerDwell)

	*req = mcam.Request{Op: mcam.OpPause, StreamID: p.id}
	if _, err := a.streamCall(req, rc, sink); err != nil {
		return err
	}
	time.Sleep(viewerPause)
	*req = mcam.Request{Op: mcam.OpResume, StreamID: p.id}
	if _, err := a.streamCall(req, rc, sink); err != nil {
		return err
	}
	time.Sleep(viewerPause)
	*req = mcam.Request{Op: mcam.OpStop, StreamID: p.id}
	if _, err := a.streamCall(req, rc, sink); err != nil {
		return err
	}
	if _, err := a.awaitTerminal(p.id, callTimeout); err != nil {
		a.failed++
		return err
	}
	a.timer.Reset(callTimeout)
	defer a.timer.Stop()
	select {
	case <-p.done:
	case <-a.timer.C:
		return fmt.Errorf("stream %d: receiver saw no end of stream", p.id)
	}
	if p.corrupt > 0 {
		a.failed += p.corrupt
		a.w.fail("interactive stream %d: %d frames with a wrong CRC-32C", p.id, p.corrupt)
	}
	return p.err
}

// awaitSlot waits for an open-loop call's slot and returns the instant the
// call's latency counts from. That is the slot itself when the previous call
// overran it: the wait a stall imposes on later requests is the system's.
// When the generator slept until the slot it is the moment it woke: how late
// an idle Go process wakes (up to a millisecond, see README) is the
// harness's, and is reported as harness.openloop_lag_p99_us instead of
// being mixed into every latency.
func (a *assoc) awaitSlot(due int64, sink *sink) int64 {
	overran := nowNs() > due
	sleepUntil(due)
	start := nowNs()
	sink.lag.record(start - due)
	if overran {
		return due
	}
	return start
}

// browseLoop is stream-paced's open-loop generator: Select / Query /
// Deselect over the streamable movies, one call every browsePeriod.
func (a *assoc) browseLoop(rc *roundClock, sink *sink) error {
	for k := int64(0); ; k++ {
		due := rc.t0 + k*int64(browsePeriod)
		if due >= rc.end() {
			return nil
		}
		if err := a.browseStep(int(k), a.awaitSlot(due, sink), rc, sink); err != nil {
			return err
		}
	}
}

func (a *assoc) browseStep(k int, due int64, rc *roundClock, sink *sink) error {
	mi := (k / 3) % len(a.w.movies)
	mv := a.w.movies[mi]
	var req *mcam.Request
	switch k % 3 {
	case 0:
		req = a.selectReq[mi]
	case 1:
		req = a.querySel
	default:
		req = a.deselectReq
	}
	resp, err := a.call(req, due, rc, sink)
	if err != nil {
		return err
	}
	ok := resp.OK()
	if k%3 != 2 {
		ok = ok && resp.Length == int64(mv.frames) && resp.FrameRate == int64(mv.rate)
	}
	if k%3 == 1 {
		ok = ok && attrValue(resp.Attrs, "title") == mv.name
	}
	if !ok {
		a.failed++
		a.w.fail("browse %s on %s: wrong answer (%s, length %d)", req.Op, mv.name, resp.Status, resp.Length)
	}
	return nil
}

func attrValue(attrs []mcam.Attr, name string) string {
	for _, at := range attrs {
		if at.Name == name {
			return at.Value
		}
	}
	return ""
}

// recordLoop is stream-disk's open-loop generator: one Record of
// recordBatch frames every recordPeriod onto the live movie.
func (a *assoc) recordLoop(rc *roundClock, sink *sink) error {
	for k := int64(0); ; k++ {
		due := rc.t0 + k*int64(recordPeriod)
		if due >= rc.end() {
			return nil
		}
		if err := a.record(rc, sink, a.awaitSlot(due, sink)); err != nil {
			return err
		}
	}
}

// record appends the next group of camera frames to the live movie and
// checks the length the server reports back.
func (a *assoc) record(rc *roundClock, sink *sink, due int64) error {
	a.w.recorded++
	batch := a.w.recorded
	req := &a.ctlReq
	*req = mcam.Request{Op: mcam.OpRecord, Movie: liveMovie, Device: cameraName, Count: recordBatch, StreamID: recordID}
	var resp *mcam.Response
	var err error
	if sink == nil {
		resp, err = a.streamCall(req, rc, nil)
	} else {
		resp, err = a.call(req, due, rc, sink)
	}
	if err != nil {
		return err
	}
	if !resp.OK() || resp.Length != int64(batch*recordBatch) {
		a.failed++
		a.w.fail("record batch %d: %s, length %d, want %d", batch, resp.Status, resp.Length, batch*recordBatch)
	}
	return nil
}
