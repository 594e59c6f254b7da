package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"xmovie"
)

// setUps is how many times an untraced run sets the workload up; setup_s is
// the median, and the last set-up is the one measured.
const setUps = 3

// A ctl workload spends half its seconds in the closed loop (phase A, cut
// into ctlRounds rounds) and half streaming on the idle server (phase B); a
// stream workload spends them all streaming. A streaming phase is cut into
// rounds of a quarter second. Every per-round metric is computed round by
// round and the run reports the median of the rounds the host left
// undisturbed (sysstat.go), so that a hiccup of the host spoils the round it
// falls into and not the run. On a busy host the guest
// stands still for 10 to 140 ms a dozen times a run: with rounds of 2 s the
// 99th percentile of lateness read 3.0 to 6.2 ms over six runs, with rounds
// of 1 s 3.0 to 4.0 ms, with rounds of 250 ms 2.97 to 3.20 ms.
//
// The control calls of a streaming phase — 23 a second on stream-disk,
// Records that wait for the disk among viewer calls that do not — are too
// few for that, and their rate and median latency are taken over rounds of
// two seconds.
const (
	ctlRounds   = 20
	streamRound = 250 * time.Millisecond
	callRound   = 2 * time.Second
)

// runWorkload is the body of a workload process.
func runWorkload(wl *workload, seed int64, seconds int, traced bool, outDir string, bf *benchmarkFile) (*report, error) {
	runtime.GOMAXPROCS(associations)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{samples: make(map[string]int64)}
	values := make(map[string]float64)

	n := setUps
	if traced {
		n = 1
	}
	var w *world
	var durs []float64
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
			runtime.GC() // so peak_rss_mb is one set-up's heap, not three
		}
		// The first set-up is timed from process start.
		start := int64(0)
		if i > 0 {
			start = nowNs()
		}
		var err error
		if w, err = buildWorld(wl, seed, seconds, outDir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		durs = append(durs, float64(nowNs()-start)/1e9)
	}
	defer w.close()
	w.host = openHostSteal()
	defer w.host.close()
	if wl.disk {
		// Deleting the earlier set-ups' stores queues journal commits and
		// discards that would otherwise land — as a 40 ms stall of the whole
		// guest, in the prototype — somewhere in the measured phase.
		syscall.Sync()
	}
	rep.notes = append(rep.notes, fmt.Sprintf("set-ups: %.3f s; %d associations on GOMAXPROCS=%d", durs, associations, associations))
	values["setup_s"] = median(durs)

	var err error
	if traced {
		err = w.measureTraced(values, rep, outDir)
	} else {
		rounds := make(map[string]series)
		err = w.measure(values, rounds, rep)
		for _, spec := range bf.EndToEnd {
			if rs, ok := rounds[spec.Name]; ok {
				rep.notes = append(rep.notes, fmt.Sprintf("rounds %s (%d of %d left out as disturbed): %.2f",
					spec.Name, rs.disturbed(), len(rs.vs), rs.vs))
				values[spec.Name] = medianRound(rs.vs, rs.ok)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	var attempted, failed int64
	for _, a := range w.assocs {
		attempted += a.attempted
		failed += a.failed
	}
	attempted += w.framesPlayed
	failed += w.framesFailed
	specs := bf.EndToEnd
	if traced {
		specs = bf.PerLayer
		delete(values, "setup_s")
	} else {
		values["peak_rss_mb"] = peakRSSMB()
	}
	rep.result, rep.errors = finish(specs, values, attempted, failed, w.errs)
	return rep, nil
}

// series is one metric's per-round values and which of the rounds the host
// left undisturbed.
type series struct {
	vs []float64
	ok []bool
}

func (rs series) disturbed() (n int) {
	for _, ok := range rs.ok {
		if !ok {
			n++
		}
	}
	return n
}

// secondsDur returns one part in den of a run's measured seconds.
func secondsDur(seconds int, den int64) time.Duration {
	return time.Duration(int64(seconds) * int64(time.Second) / den)
}

// warmUp is the fixed warm-up that ends every set-up: a fixed number of
// control cycles, then a fixed number of frames on every stream path.
func (w *world) warmUp() error {
	if w.wl.ctl {
		if err := w.runClosed(nil, nil, warmCycles*cycleLen); err != nil {
			return err
		}
	}
	dur := warmStream
	if w.wl.ctl {
		dur = warmStreamCtl
	}
	run, err := w.runStreams(&streamPlan{rounds: 1, roundDur: dur})
	if err != nil {
		return err
	}
	w.verifyStreams(run)
	if len(w.errs) > 0 {
		return fmt.Errorf("warm-up: %s", w.errs[0])
	}
	return nil
}

// measure runs the untraced measured phases and fills in the end-to-end
// metrics: per round where the run reports the median round, as a value
// where a metric is taken over a whole phase.
func (w *world) measure(values map[string]float64, rounds map[string]series, rep *report) error {
	runtime.GC()
	if w.wl.ctl {
		sinks := w.newSinks(ctlRounds, 0, false)
		rc := &roundClock{t0: nowNs() + int64(20*time.Millisecond), dur: int64(secondsDur(w.seconds, 2*ctlRounds)), n: ctlRounds}
		steal := w.sampleSteal(rc)
		if err := w.runClosed(rc, sinks, 0); err != nil {
			return err
		}
		w.ctlMetrics(rc, sinks, <-steal, rounds, rep)
		runtime.GC()
	}
	phase := secondsDur(w.seconds, 1)
	if w.wl.ctl {
		phase /= 2
	}
	run, err := w.runStreams(&streamPlan{rounds: int(phase / streamRound), roundDur: streamRound})
	if err != nil {
		return err
	}
	w.verifyStreams(run)
	w.verifyServer()
	w.streamMetrics(run, values, rounds, rep)
	return nil
}

// sampleSteal reads the host's steal time at every round boundary of rc, on
// a goroutine of its own, and delivers the readings once the last round has
// ended.
func (w *world) sampleSteal(rc *roundClock) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	go func() {
		steal := make([]time.Duration, 0, rc.n+1)
		for r := 0; r <= rc.n; r++ {
			sleepUntil(rc.t0 + int64(r)*rc.dur)
			steal = append(steal, w.host.read())
		}
		out <- steal
	}()
	return out
}

// ctlMetrics computes ctl_ops_per_s and ctl_op_p50_us per round of the
// closed loop.
func (w *world) ctlMetrics(rc *roundClock, sinks []*sink, steal []time.Duration, rounds map[string]series, rep *report) {
	var rate, p50 []float64
	var total int64
	for r := 0; r < rc.n; r++ {
		var h hist
		var ops int64
		for _, s := range sinks {
			h.merge(&s.lat[r])
			ops += s.count[r]
		}
		total += ops
		rate = append(rate, float64(ops)/(float64(rc.dur)/1e9))
		p50 = append(p50, h.quantile(0.5)/1e3)
	}
	ok := undisturbed(steal, time.Duration(rc.dur))
	rep.samples["ctl_op_p50_us"] = total
	rounds["ctl_ops_per_s"] = series{rate, ok}
	rounds["ctl_op_p50_us"] = series{p50, ok}
}

// verifyStreams is the output check of a streaming phase. Per steady stream
// (and the live follower): delivered + lost at the receiver equals the
// sequence span the sender covered, every delivered frame matched its
// reference CRC-32C in order, and nothing was lost or dropped. A frame the
// sender transmitted that did not arrive intact and in order, and a frame
// adaptive delivery dropped at its deadline, are failed operations and fail
// the run.
func (w *world) verifyStreams(run *streamRun) {
	streams := run.steady
	if run.follower != nil {
		streams = append(streams[:len(streams):len(streams)], run.follower)
	}
	for _, p := range streams {
		end := run.ends[p.id]
		if got := int64(p.stats.Delivered + p.stats.Lost); got != end.span {
			w.fail("stream %d: delivered %d + lost %d != %d frames played (%d sent, %d dropped)",
				p.id, p.stats.Delivered, p.stats.Lost, end.span, end.sent, end.dropped)
		}
		if p.corrupt > 0 {
			w.fail("stream %d: %d frames with a wrong CRC-32C", p.id, p.corrupt)
		}
		w.framesPlayed += end.sent + end.dropped
		if bad := end.sent - p.good + end.dropped; bad > 0 {
			w.framesFailed += bad
			w.fail("stream %d (%s from %d): %d of %d frames did not arrive (%d dropped by the sender, receiver lost %d, first gap at %d)",
				p.id, p.mv.name, p.from, bad, end.sent+end.dropped, end.dropped, p.stats.Lost, p.gapAt)
		}
	}
}

// verifyServer cross-checks the server's own account of the data plane
// against the receivers': on SimNet nothing is lost, so every frame the
// server says it sent must have been received.
func (w *world) verifyServer() {
	if w.sim == nil {
		return
	}
	if sent, got := w.srv.Observe().Streams.Frames, w.received.Load(); sent != got {
		w.fail("server sent %d frames, receivers got %d", sent, got)
	}
}

// exactQuantile returns the q-quantile of vs (sorted in place), 0 if empty.
func exactQuantile(vs []int64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	i := int(q * float64(len(vs)))
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return float64(vs[i])
}

// lateness returns, per round, the histogram of the steady streams' frame
// lateness — arrival minus Frame.TS, minus that stream's minimum over the
// phase — and the stretch of time the round's frames cover.
func (run *streamRun) lateness() ([]hist, []extent) {
	rc := &run.rc
	late := make([]hist, rc.n)
	good := make([]extent, rc.n)
	for _, p := range run.steady {
		lo := int64(math.MaxInt64)
		for i := 0; i < p.n; i++ {
			if r := rc.idx(p.at[i]); r >= 0 && r < rc.n && p.raw[i] < lo {
				lo = p.raw[i]
			}
		}
		for i := 0; i < p.n; i++ {
			if r := rc.idx(p.at[i]); r >= 0 && r < rc.n {
				late[r].record(p.raw[i] - lo)
				good[r].cover(p.at[i], p.at[i])
			}
		}
	}
	return late, good
}

// callsByRound sorts the control calls in sinks into the rounds of rc.
func callsByRound(rc *roundClock, sinks []*sink) [][]callSample {
	byRound := make([][]callSample, rc.n)
	for _, s := range sinks {
		for _, c := range s.calls {
			if r := rc.idx(c.at); r >= 0 && r < rc.n {
				byRound[r] = append(byRound[r], c)
			}
		}
	}
	return byRound
}

// undisturbedSamples returns the latencies of the samples that fell into the
// rounds of rc marked ok.
func undisturbedSamples(samples []callSample, rc *roundClock, ok []bool) []int64 {
	kept := make([]int64, 0, len(samples))
	for _, c := range samples {
		if r := rc.idx(c.at); r >= 0 && r < rc.n && ok[r] {
			kept = append(kept, c.lat)
		}
	}
	return kept
}

// streamMetrics fills in the streaming metrics, per round: frame metrics
// over rounds of streamRound, call metrics over rounds of callRound. The
// exception is the viewer script's two timings: a round sees a handful of
// each at most, so they are medians over the whole phase's samples.
func (w *world) streamMetrics(run *streamRun, values map[string]float64, rounds map[string]series, rep *report) {
	rc := &run.rc
	late, good := run.lateness()
	var p50, p99, goodput, cpu, opRate, opP50 []float64
	var nOps, nLate int64
	for r := 0; r < rc.n; r++ {
		p50 = append(p50, late[r].quantile(0.5)/1e3)
		p99 = append(p99, late[r].quantile(0.99)/1e3)
		nLate += int64(late[r].n)
		goodput = append(goodput, good[r].rate(int64(late[r].n)))
		cpu = append(cpu, ratio(float64(run.cpu[r+1]-run.cpu[r])/1e3, float64(run.frames[r+1]-run.frames[r])))
	}
	ok := undisturbed(run.steal, time.Duration(rc.dur))
	stolen := make([]int64, rc.n)
	for r := range stolen {
		stolen[r] = int64((run.steal[r+1] - run.steal[r]) / time.Millisecond)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("rounds stolen by the host, ms: %d", stolen))

	// A call round spans a whole number of frame rounds; its steal readings
	// are the ones at its own boundaries.
	per := min(int(callRound/streamRound), rc.n) // a phase shorter than one call round is one
	callRC := roundClock{t0: rc.t0, dur: int64(per) * rc.dur, n: rc.n / per}
	callSteal := make([]time.Duration, 0, callRC.n+1)
	for r := 0; r <= callRC.n; r++ {
		callSteal = append(callSteal, run.steal[r*per])
	}
	// Association 0's calls only, the open-loop generator's: with the
	// viewer's mixed in, stream-disk's median would sit in the gap between
	// 10 Records a second that wait for the disk and 13 viewer calls that do
	// not, and say nothing about either.
	for _, calls := range callsByRound(&callRC, run.sinks[:1]) {
		var span extent
		lats := make([]int64, 0, len(calls))
		for _, c := range calls {
			span.cover(c.at, c.at)
			lats = append(lats, c.lat)
		}
		nOps += int64(len(lats))
		opRate = append(opRate, span.rate(int64(len(lats))))
		opP50 = append(opP50, exactQuantile(lats, 0.5)/1e3)
	}
	callOK := undisturbed(callSteal, time.Duration(callRC.dur))

	var startup, seek []callSample
	for _, s := range run.sinks {
		startup = append(startup, s.startup...)
		seek = append(seek, s.seek...)
	}
	rounds["frame_lateness_p50_us"] = series{p50, ok}
	rounds["frame_lateness_p99_us"] = series{p99, ok}
	rounds["goodput_fps"] = series{goodput, ok}
	rounds["cpu_us_per_frame"] = series{cpu, ok}
	values["play_startup_p50_us"] = exactQuantile(undisturbedSamples(startup, rc, ok), 0.5) / 1e3
	values["seek_p50_us"] = exactQuantile(undisturbedSamples(seek, rc, ok), 0.5) / 1e3
	rep.samples["frame_lateness_p50_us"] = nLate
	rep.samples["frame_lateness_p99_us"] = nLate
	rep.samples["cpu_us_per_frame"] = run.frames[rc.n] - run.frames[0]
	rep.samples["play_startup_p50_us"] = int64(len(startup))
	rep.samples["seek_p50_us"] = int64(len(seek))
	if !w.wl.ctl {
		rounds["ctl_ops_per_s"] = series{opRate, callOK}
		rounds["ctl_op_p50_us"] = series{opP50, callOK}
		rep.samples["ctl_op_p50_us"] = nOps
	}
}

// observed is a snapshot of every counter the per-layer metrics take
// deltas of.
type observed struct {
	at    int64
	obs   xmovie.Observation
	cache [3]int64 // hits, misses, evictions
	mem   runtime.MemStats
	cpu   time.Duration
}

func (w *world) observe() observed {
	o := observed{at: nowNs(), obs: w.srv.Observe(), mem: readMem(), cpu: cpuTime()}
	if w.cache != nil {
		st := w.cache.Stats()
		o.cache = [3]int64{st.Hits, st.Misses, st.Evictions}
	}
	return o
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// measureTraced is the traced run: the same phases, shorter, with odd
// rounds traced and even rounds left alone (their difference is the
// tracing overhead), then the isolated layer measurements.
func (w *world) measureTraced(values map[string]float64, rep *report, outDir string) error {
	var extra []string
	for _, m := range w.movies {
		extra = append(extra, m.name)
	}
	var err error
	if w.fx, err = newFixture(w.seed, extra); err != nil {
		return err
	}
	var tracers []*tracer
	var sampled int64
	var traced, untraced []float64 // ctl ops/s of traced and untraced rounds
	var tracedLat hist
	runtime.GC()
	begin := w.observe()
	goroutines := runtime.NumGoroutine()

	if w.wl.ctl {
		const rounds = 6
		sinks := w.newSinks(rounds, 0, true)
		rc := &roundClock{t0: nowNs() + int64(20*time.Millisecond), dur: int64(secondsDur(w.seconds, 15)), n: rounds}
		done := make(chan error, 1)
		go func() { done <- w.runClosed(rc, sinks, 0) }()
		// The coordinator reads the allocation and CPU counters at round
		// boundaries; the untraced rounds give the per-op runtime costs.
		marks := make([]observed, 0, rounds+1)
		for r := 0; r <= rounds; r++ {
			sleepUntil(rc.t0 + int64(r)*rc.dur)
			marks = append(marks, observed{mem: readMem(), cpu: cpuTime()})
			if g := runtime.NumGoroutine(); g > goroutines {
				goroutines = g
			}
		}
		if err := <-done; err != nil {
			return err
		}
		var allocs, bytes, cpu []float64
		for r := 0; r < rounds; r++ {
			var ops int64
			for _, s := range sinks {
				ops += s.count[r]
				if r%2 == 1 {
					tracedLat.merge(&s.lat[r])
				}
			}
			rate := float64(ops) / (float64(rc.dur) / 1e9)
			if r%2 == 1 {
				traced = append(traced, rate)
				continue
			}
			untraced = append(untraced, rate)
			d := memSince(marks[r].mem, marks[r+1].mem)
			allocs = append(allocs, ratio(float64(d.mallocs), float64(ops)))
			bytes = append(bytes, ratio(float64(d.bytes), float64(ops)))
			cpu = append(cpu, ratio(float64(marks[r+1].cpu-marks[r].cpu)/1e3, float64(ops)))
		}
		values["runtime.allocs_per_ctl_op"] = median(allocs)
		values["runtime.alloc_bytes_per_ctl_op"] = median(bytes)
		values["runtime.cpu_us_per_ctl_op"] = median(cpu)
		for _, s := range sinks {
			tracers = append(tracers, s.tr)
			sampled += s.sampled
		}
		runtime.GC()
	}

	rounds, dur := 4, secondsDur(w.seconds, 8)
	if w.wl.ctl {
		rounds, dur = 2, secondsDur(w.seconds, 10)
	}
	before := w.observe()
	run, err := w.runStreams(&streamPlan{rounds: rounds, roundDur: dur, traced: true})
	if err != nil {
		return err
	}
	after := w.observe()
	w.verifyStreams(run)
	w.verifyServer()
	if run.goroutines > goroutines {
		goroutines = run.goroutines
	}
	var lag hist
	for _, s := range run.sinks {
		tracers = append(tracers, s.tr)
		sampled += s.sampled
		lag.merge(&s.lag)
	}
	if !w.wl.ctl {
		secs := float64(run.rc.dur) / 1e9
		for r, calls := range callsByRound(&run.rc, run.sinks) {
			if r%2 == 1 {
				traced = append(traced, float64(len(calls))/secs)
				for _, c := range calls {
					tracedLat.record(c.lat)
				}
			} else {
				untraced = append(untraced, float64(len(calls))/secs)
			}
		}
		// What a control op costs the runtime, measured on the idle
		// server the streams left behind: a closed burst of browse ops.
		const burst = 3000
		m0, c0 := readMem(), cpuTime()
		a := w.assocs[0]
		for k := 0; k < burst; k++ {
			if err := a.browseStep(k, 0, &noRounds, nil); err != nil {
				return err
			}
		}
		d := memSince(m0, readMem())
		values["runtime.allocs_per_ctl_op"] = float64(d.mallocs) / burst
		values["runtime.alloc_bytes_per_ctl_op"] = float64(d.bytes) / burst
		values["runtime.cpu_us_per_ctl_op"] = float64(cpuTime()-c0) / 1e3 / burst
	}

	// Counter deltas over the streaming phase.
	bs, as := before.obs, after.obs
	frames := float64(as.Streams.Frames - bs.Streams.Frames)
	phase := float64(after.at-before.at) / 1e9
	md := memSince(before.mem, after.mem)
	whole := memSince(begin.mem, after.mem)
	values["spa.frames_dropped"] = float64(as.Streams.Dropped - bs.Streams.Dropped)
	values["spa.frames_late"] = float64(as.Streams.Late - bs.Streams.Late)
	values["mtp.batch_frames_per_send"] = ratio(float64(as.Delivery.BatchFrames-bs.Delivery.BatchFrames),
		float64(as.Delivery.Batches-bs.Delivery.Batches))
	copies := float64(as.Delivery.CopySends - bs.Delivery.CopySends)
	values["mtp.copy_send_share"] = ratio(copies, copies+float64(as.Delivery.VecSends-bs.Delivery.VecSends))
	values["mtp.feedback_reports"] = float64(as.Streams.Feedback - bs.Streams.Feedback)
	values["timewheel.ticks_per_s"] = float64(as.TimerWheel.Ticks-bs.TimerWheel.Ticks) / phase
	values["timewheel.armed_per_frame"] = ratio(float64(as.TimerWheel.Armed-bs.TimerWheel.Armed), frames)
	hits, misses := float64(after.cache[0]-before.cache[0]), float64(after.cache[1]-before.cache[1])
	values["moviedb.cache_hit_ratio"] = ratio(hits, hits+misses)
	values["moviedb.cache_evictions"] = float64(after.cache[2] - before.cache[2])
	values["runtime.allocs_per_frame"] = ratio(float64(md.mallocs), float64(run.frames[len(run.frames)-1]-run.frames[0]))
	values["runtime.gc_cycles_per_s"] = float64(whole.gcCycles) / (float64(after.at-begin.at) / 1e9)
	values["runtime.gc_pause_total_ms"] = float64(whole.gcPause) / 1e6
	values["runtime.goroutines_peak"] = float64(goroutines)
	values["harness.openloop_lag_p99_us"] = lag.quantile(0.99) / 1e3
	values["harness.trace_overhead_pct"] = 100 * (1 - ratio(median(traced), median(untraced)))
	values["core.call_p99_us"] = tracedLat.quantile(0.99) / 1e3
	lp := &layerPhase{w: w, fx: w.fx, tr: newTracer(4096), outDir: outDir, values: values}
	if err := lp.run(); err != nil {
		return fmt.Errorf("layer phase: %w", err)
	}
	tracers = append(tracers, lp.tr)

	// Self times: every span's duration minus its children's, as measured.
	spans, dropped := mergeTracers(tracers...)
	self, negative := selfTimes(spans)
	byName := make(map[string][]float64)
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i]))
	}
	tf := &traceFile{Workload: w.wl.name, Seed: w.seed, Dropped: dropped, SelfNs: make(map[string]float64), Spans: spans}
	for name, vs := range byName {
		tf.SelfNs[name] = median(vs)
	}
	values["core.call_self_us"] = tf.SelfNs["core.call"] / 1e3
	values["harness.replay_inconsistent_pct"] = 100 * ratio(float64(negative), float64(sampled))
	rep.notes = append(rep.notes, fmt.Sprintf("trace: %d spans (%d dropped), %d calls sampled, %d shorter than their replayed layers",
		len(spans), dropped, sampled, negative))
	rep.samples["core.call_self_us"] = int64(len(byName["core.call"]))
	return writeTrace(filepath.Join(outDir, "trace-"+w.wl.name+".json"), tf)
}
