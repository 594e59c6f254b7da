package mtp

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/netsim"
)

func TestFeedbackPayloadRoundTrip(t *testing.T) {
	fb := Feedback{NextSeq: 1234, Delivered: 1200, Lost: 34, Window: 64}
	p := Packet{Flags: FlagFB, StreamID: 9, Seq: 3}
	enc, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc = fb.appendPayload(enc)
	var got Packet
	if err := got.Unmarshal(enc); err != nil {
		t.Fatal(err)
	}
	dec, ok := ParseFeedback(&got)
	if !ok || dec != fb {
		t.Fatalf("feedback round trip: %+v ok=%v", dec, ok)
	}
	// A short payload is rejected, and data packets never parse as
	// feedback.
	short := Packet{Flags: FlagFB, Payload: make([]byte, feedbackSize-1)}
	if _, ok := ParseFeedback(&short); ok {
		t.Error("short feedback accepted")
	}
	data := Packet{Payload: make([]byte, feedbackSize)}
	if _, ok := ParseFeedback(&data); ok {
		t.Error("data packet parsed as feedback")
	}
}

// runReceiver starts ReceiveStream on conn, returning channels for the
// stats and a running count of delivered frames.
func runReceiver(t *testing.T, conn PacketConn, cfg ReceiverConfig, keep *[]Frame, mu *sync.Mutex) chan RecvStats {
	t.Helper()
	done := make(chan RecvStats, 1)
	go func() {
		st, _ := ReceiveStream(conn, cfg, func(f Frame) {
			if keep == nil {
				return
			}
			cp := f
			cp.Payload = append([]byte(nil), f.Payload...)
			mu.Lock()
			*keep = append(*keep, cp)
			mu.Unlock()
		})
		done <- st
	}()
	return done
}

func TestStreamSenderDeliversLazySource(t *testing.T) {
	cfg := moviedb.SynthConfig{Name: "lazy-send", Frames: 120, FrameSize: 700, ChunkFrames: 8}
	movie := moviedb.SynthesizeLazy(cfg)
	eager := moviedb.Synthesize(cfg)
	a, b, link := netsim.NewLink(netsim.Config{}, netsim.Config{})
	defer link.Close()
	var mu sync.Mutex
	var got []Frame
	done := runReceiver(t, b, ReceiverConfig{}, &got, &mu)

	s := NewStreamSender(a, StreamConfig{StreamID: 4})
	st, err := s.Run(movie.Open())
	if err != nil {
		t.Fatal(err)
	}
	rstats := <-done
	if st.Sent != 120 || !st.Done || st.Dropped != 0 {
		t.Fatalf("send stats %+v", st)
	}
	if rstats.Delivered != 120 || rstats.Lost != 0 {
		t.Fatalf("recv stats %+v", rstats)
	}
	for i, f := range got {
		if !bytes.Equal(f.Payload, eager.Frames[i]) {
			t.Fatalf("frame %d corrupted through lazy path", i)
		}
	}
}

func TestStreamSenderStartsMidStreamWithSync(t *testing.T) {
	movie := moviedb.SynthesizeLazy(moviedb.SynthConfig{Name: "midstart", Frames: 120, FrameSize: 64})
	a, b, link := netsim.NewLink(netsim.Config{}, netsim.Config{})
	defer link.Close()
	var mu sync.Mutex
	var got []Frame
	done := runReceiver(t, b, ReceiverConfig{}, &got, &mu)

	src := movie.Open()
	if err := src.SeekTo(100); err != nil {
		t.Fatal(err)
	}
	s := NewStreamSender(a, StreamConfig{StreamID: 5})
	if _, err := s.Run(src); err != nil {
		t.Fatal(err)
	}
	rstats := <-done
	if rstats.Delivered != 20 || rstats.Lost != 0 || rstats.Resyncs != 1 {
		t.Fatalf("mid-start recv stats %+v", rstats)
	}
	if got[0].Seq != 100 {
		t.Fatalf("first delivered seq %d, want 100", got[0].Seq)
	}
}

func TestStreamSenderPauseResumeSeekStop(t *testing.T) {
	movie := moviedb.SynthesizeLazy(moviedb.SynthConfig{Name: "control", Frames: 500, FrameSize: 64})
	a, b, link := netsim.NewLink(netsim.Config{}, netsim.Config{})
	defer link.Close()
	var mu sync.Mutex
	var got []Frame
	done := runReceiver(t, b, ReceiverConfig{}, &got, &mu)

	s := NewStreamSender(a, StreamConfig{StreamID: 6, FrameRate: 500})
	runDone := make(chan StreamStats, 1)
	go func() {
		st, _ := s.Run(movie.Open())
		runDone <- st
	}()

	// Let a few frames flow, then pause and verify delivery stalls.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no frames delivered before pause")
		}
		time.Sleep(time.Millisecond)
	}
	s.Pause()
	time.Sleep(20 * time.Millisecond) // in-flight frames settle
	mu.Lock()
	atPause := len(got)
	mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	mu.Lock()
	duringPause := len(got)
	mu.Unlock()
	if duringPause > atPause+1 {
		t.Fatalf("delivery continued while paused: %d -> %d", atPause, duringPause)
	}

	// Live seek while paused, then resume near the end.
	s.SeekTo(490)
	s.Resume()
	st := <-runDone
	rstats := <-done
	if !st.Done {
		t.Fatalf("stream did not complete: %+v", st)
	}
	if st.Pos != 500 {
		t.Fatalf("final position %d", st.Pos)
	}
	// Delivery jumped: everything before the pause plus the post-seek
	// tail, with the discontinuity resynchronized rather than counted as
	// loss.
	if rstats.Delivered >= 500 || rstats.Delivered < 10 {
		t.Fatalf("delivered %d frames across seek", rstats.Delivered)
	}
	if rstats.Resyncs == 0 {
		t.Error("no resync recorded after seek")
	}
	if rstats.Lost != 0 {
		t.Errorf("seek counted as loss: %+v", rstats)
	}
	mu.Lock()
	last := got[len(got)-1]
	mu.Unlock()
	if last.Seq != 499 {
		t.Errorf("last delivered seq %d, want 499", last.Seq)
	}

	// Stop on a fresh sender aborts promptly.
	s2 := NewStreamSender(a, StreamConfig{StreamID: 6, FrameRate: 10})
	go func() {
		time.Sleep(30 * time.Millisecond)
		s2.Stop()
	}()
	st2, err := s2.Run(movie.Open())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Done || st2.Pos >= 500 {
		t.Fatalf("stopped stream reported %+v", st2)
	}
}

// TestAdaptiveDeliveryUnderCongestion runs the credit-based sender across
// a lossy, bandwidth-shaped netsim link: the link sustains roughly half
// the stream's frame rate, so a non-adaptive sender would queue without
// bound. The adaptive sender must instead drop frames at their deadlines
// (keeping the pacing schedule — Late stays near zero and the wall clock
// stays near nominal) while the receiver's loss accounting stays
// consistent, and the lazy source must hold no more than its chunk window.
func TestAdaptiveDeliveryUnderCongestion(t *testing.T) {
	const frames = 300
	cfg := moviedb.SynthConfig{Name: "adapt", Frames: frames, FrameSize: 1000, ChunkFrames: 16}
	movie := moviedb.SynthesizeLazy(cfg)
	// Data direction: 5% loss and a 1 Mbit/s bottleneck (the 250 fps ×
	// 8 kbit stream needs 2 Mbit/s). Feedback direction: clean.
	a, b, link := netsim.NewLink(
		netsim.Config{LossProb: 0.05, Seed: 11, BitsPerSec: 1_000_000},
		netsim.Config{})
	defer link.Close()
	done := runReceiver(t, b, ReceiverConfig{Window: 32, FeedbackEvery: 8}, nil, nil)

	src := movie.Open()
	s := NewStreamSender(a, StreamConfig{StreamID: 7, FrameRate: 250, Window: 32})
	start := time.Now()
	st, err := s.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	rstats := <-done
	elapsed := time.Since(start)

	if st.Sent+st.Dropped != frames {
		t.Fatalf("sent %d + dropped %d != %d", st.Sent, st.Dropped, frames)
	}
	if st.Dropped == 0 {
		t.Fatal("no frames dropped across a half-capacity link")
	}
	if st.Feedback == 0 {
		t.Fatal("sender processed no receiver feedback")
	}
	if rstats.Delivered == 0 || rstats.Delivered+rstats.Lost != frames {
		t.Fatalf("receiver accounting: %+v", rstats)
	}
	// Deadline keeping: dropping (not queueing) absorbs the congestion,
	// so transmission finishes near the nominal 1.2s and few frames leave
	// late. Bounds are generous for loaded CI machines.
	nominal := frames * int(time.Second) / 250
	if elapsed > 3*time.Duration(nominal) {
		t.Errorf("transmission stretched to %v (nominal %v)", elapsed, time.Duration(nominal))
	}
	if st.Late > frames/5 {
		t.Errorf("%d of %d frames late despite adaptive dropping", st.Late, frames)
	}
	// Bounded sender memory: the lazy source held at most its chunk
	// window however much the link misbehaved.
	if max := src.(moviedb.ResidentReporter).MaxResident(); max > 16*1000 {
		t.Errorf("source resident %d bytes exceeds chunk window", max)
	}
}

// reuseBufConn replays packets through one reused receive buffer, exactly
// like the UDP conns do — the configuration that exposes deliver-callback
// buffer retention.
type reuseBufConn struct {
	pkts [][]byte
	i    int
	buf  []byte
}

var errReplayDone = errors.New("replay exhausted")

func (c *reuseBufConn) Send([]byte) error { return nil }

func (c *reuseBufConn) Recv() ([]byte, error) {
	if c.i >= len(c.pkts) {
		return nil, errReplayDone
	}
	c.buf = append(c.buf[:0], c.pkts[c.i]...)
	c.i++
	return c.buf, nil
}

// TestDeliverPayloadNotRetainable pins the receiver's payload-lifetime
// contract: Frame.Payload aliases the conn's receive buffer on the
// in-order path, so a consumer that retains it across callbacks observes
// the next packet's bytes, not its own frame. If the receiver ever started
// copying payloads (breaking the zero-copy hot path), this test fails and
// the contract comment in Frame must be revisited.
func TestDeliverPayloadNotRetainable(t *testing.T) {
	const n = 8
	movie := moviedb.Synthesize(moviedb.SynthConfig{Name: "retain", Frames: n, FrameSize: 512})
	var pkts [][]byte
	for i, f := range movie.Frames {
		p := Packet{StreamID: 1, Seq: uint32(i), Payload: f}
		enc, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, enc)
	}
	eos, _ := (&Packet{StreamID: 1, Seq: n, Flags: FlagEOS}).Marshal(nil)
	pkts = append(pkts, eos)

	var retained [][]byte // aliases the conn buffer: the footgun
	var copied [][]byte   // the documented correct usage
	st, err := ReceiveStream(&reuseBufConn{pkts: pkts}, ReceiverConfig{}, func(f Frame) {
		retained = append(retained, f.Payload)
		copied = append(copied, append([]byte(nil), f.Payload...))
	})
	if err != nil || st.Delivered != n {
		t.Fatalf("delivered %d, err %v", st.Delivered, err)
	}
	for i := range copied {
		if !bytes.Equal(copied[i], movie.Frames[i]) {
			t.Fatalf("copied frame %d corrupted", i)
		}
	}
	// Every retained slice now shows the buffer's final contents (the
	// last frame overwrote it), proving retention is unsafe.
	if bytes.Equal(retained[0], movie.Frames[0]) {
		t.Fatal("retained payload survived: receiver copied the buffer, zero-copy contract changed")
	}
	if !bytes.Equal(retained[0], movie.Frames[n-1]) {
		t.Fatal("retained payload does not alias the reused receive buffer")
	}
}

// TestFrameSourceSendAllocs guards the steady-state allocation profile of
// the FrameSource send path: however long the stream, the per-frame loop
// (source chunk refills, packet marshalling, pacing bookkeeping) must not
// allocate — only per-Run setup may (sender, channels, source cursor).
func TestFrameSourceSendAllocs(t *testing.T) {
	movie := moviedb.SynthesizeLazy(moviedb.SynthConfig{Name: "allocs", Frames: 256, FrameSize: 4096, ChunkFrames: 16})
	src := movie.Open()
	run := func() {
		if err := src.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		s := NewStreamSender(sinkConn{}, StreamConfig{StreamID: 1})
		st, err := s.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		if st.Sent != 256 {
			t.Fatalf("sent %d", st.Sent)
		}
	}
	run() // warm pools and the source arena
	allocs := testing.AllocsPerRun(20, run)
	// Setup allocates a handful of objects per Run; 256 frames through
	// the loop must add nothing (a per-frame alloc would show as >= 256).
	if allocs > 8 {
		t.Fatalf("FrameSource send path allocates %.1f per 256-frame run, want <= 8", allocs)
	}
}

// TestLiveTailSendAllocs guards the steady-state live-tail send path: a
// viewer at the live edge of a recorded movie is served straight from the
// live window's ring — zero-copy, no chunk-cache traffic — so the
// per-frame loop must not allocate, exactly like the cold-history path
// TestFrameSourceSendAllocs guards.
func TestLiveTailSendAllocs(t *testing.T) {
	store, err := moviedb.OpenDiskStore(t.TempDir(), moviedb.DiskConfig{ChunkFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Create(&moviedb.Movie{Name: "live"}); err != nil {
		t.Fatal(err)
	}
	rec, err := store.Record("live")
	if err != nil {
		t.Fatal(err)
	}
	// 256 frames = the live ring capacity: after sealing, every frame is
	// still ring-resident, so the whole replay runs the live-tail path.
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte(i)}, 1024)
	}
	for i := 0; i < 256/len(batch); i++ {
		if _, err := rec.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	rec.Close()
	m, err := store.Get("live")
	if err != nil {
		t.Fatal(err)
	}
	src := m.Open()
	defer src.Close()
	run := func() {
		if err := src.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		s := NewStreamSender(sinkConn{}, StreamConfig{StreamID: 1})
		st, err := s.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		if st.Sent != 256 {
			t.Fatalf("sent %d", st.Sent)
		}
	}
	run() // warm pools
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 8 {
		t.Fatalf("live-tail send path allocates %.1f per 256-frame run, want <= 8", allocs)
	}
}

// TestFeedbackOverUDP exercises the TryRecv feedback path over real
// loopback sockets: the receiver's reports reach the sender through the
// connected UDP conn's non-blocking poll.
func TestFeedbackOverUDP(t *testing.T) {
	lis, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	movie := moviedb.SynthesizeLazy(moviedb.SynthConfig{Name: "udp-fb", Frames: 200, FrameSize: 512})
	done := make(chan RecvStats, 1)
	go func() {
		st, _ := ReceiveStream(lis, ReceiverConfig{FeedbackEvery: 8}, nil)
		done <- st
	}()
	conn, err := DialUDP(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	s := NewStreamSender(conn, StreamConfig{StreamID: 3, FrameRate: 500, Window: 16})
	st, err := s.Run(movie.Open())
	if err != nil {
		t.Fatal(err)
	}
	rstats := <-done
	if st.Feedback == 0 {
		t.Error("no feedback reached the sender over UDP")
	}
	if rstats.Delivered == 0 || rstats.FeedbackSent == 0 {
		t.Errorf("receiver stats %+v", rstats)
	}
	if st.Sent+st.Dropped != 200 {
		t.Errorf("sender consumed %d+%d frames", st.Sent, st.Dropped)
	}
}

// TestSeekToEOFEndsCleanly pins the seek-straight-to-end edge: no data
// frame follows the jump, so the sync rides on the EOS markers and the
// receiver must not book the skipped tail as loss.
func TestSeekToEOFEndsCleanly(t *testing.T) {
	eachConn(t, func(t *testing.T, send StreamConn, recv *tap) {
		s, runDone, recvDone := controlled(t, send, recv, 500)
		recv.awaitData(t, 5)
		s.SeekTo(4000)
		st := awaitRun(t, runDone)
		rstats := await(t, "receiver", recvDone)
		if !st.Done || st.Pos != 4000 {
			t.Fatalf("send stats after seek to EOF: %+v", st)
		}
		if rstats.Lost != 0 {
			t.Fatalf("seek to EOF booked as loss: %+v", rstats)
		}
		if rstats.Resyncs == 0 {
			t.Error("no resync recorded for the jump to EOS")
		}
		if rstats.Delivered >= 4000 || rstats.Delivered < 5 {
			t.Errorf("delivered %d frames", rstats.Delivered)
		}
	})
}

// countingThrottle is a deterministic Throttle: every reservation is
// granted after a fixed wait, and the reservations are counted.
type countingThrottle struct {
	mu           sync.Mutex
	wait         time.Duration
	reservations int
	bytes        int64
}

func (c *countingThrottle) Reserve(n int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reservations++
	c.bytes += int64(n)
	return c.wait
}

func TestStreamSenderThrottleShiftsSchedule(t *testing.T) {
	// 30 frames at 250 fps would take 116ms unthrottled; an 8ms-per-frame
	// throttle stretches that past 330ms. The imposed waits must shift the
	// pacing epoch like a pause: no frame is booked late, none is dropped.
	// (The 4ms pacing period is coarse enough that ordinary timer
	// overshoot cannot fake a late frame.)
	movie := moviedb.SynthesizeLazy(moviedb.SynthConfig{Name: "throttled", Frames: 30, FrameSize: 512})
	a, b, link := netsim.NewLink(netsim.Config{}, netsim.Config{})
	defer link.Close()
	var mu sync.Mutex
	var got []Frame
	done := runReceiver(t, b, ReceiverConfig{}, &got, &mu)

	th := &countingThrottle{wait: 8 * time.Millisecond}
	s := NewStreamSender(a, StreamConfig{StreamID: 9, FrameRate: 250, Throttle: th})
	begin := time.Now()
	st, err := s.Run(movie.Open())
	elapsed := time.Since(begin)
	if err != nil {
		t.Fatal(err)
	}
	rstats := <-done
	if st.Sent != 30 || st.Dropped != 0 || !st.Done {
		t.Fatalf("send stats %+v", st)
	}
	if st.Late != 0 {
		t.Fatalf("throttle waits booked as lateness: %+v", st)
	}
	if rstats.Delivered != 30 || rstats.Lost != 0 {
		t.Fatalf("recv stats %+v", rstats)
	}
	if th.reservations != 30 || th.bytes != 30*512 {
		t.Fatalf("throttle saw %d reservations / %d bytes, want 30 / %d",
			th.reservations, th.bytes, 30*512)
	}
	if elapsed < 230*time.Millisecond {
		t.Fatalf("throttled stream finished in %v, want >= 230ms", elapsed)
	}
}

// unavailableEvery wraps a source, consuming every k-th frame as
// ErrFrameUnavailable (the bounded-read degradation path).
type unavailableEvery struct {
	moviedb.FrameSource
	k int
}

func (u *unavailableEvery) Next() ([]byte, error) {
	pos := u.FrameSource.Pos()
	frame, err := u.FrameSource.Next()
	if err != nil {
		return frame, err
	}
	if u.k > 0 && pos%int64(u.k) == int64(u.k-1) {
		return nil, ErrFrameUnavailable
	}
	return frame, nil
}

func TestStreamSenderThrottleSkipsDroppedFrames(t *testing.T) {
	// Frames the sender never transmits (unavailable reads → FlagSkip
	// drops) must not reserve bandwidth.
	movie := moviedb.SynthesizeLazy(moviedb.SynthConfig{Name: "throttled-drop", Frames: 30, FrameSize: 256})
	a, b, link := netsim.NewLink(netsim.Config{}, netsim.Config{})
	defer link.Close()
	done := runReceiver(t, b, ReceiverConfig{}, nil, nil)

	th := &countingThrottle{}
	s := NewStreamSender(a, StreamConfig{StreamID: 10, Throttle: th})
	st, err := s.Run(&unavailableEvery{FrameSource: movie.Open(), k: 3})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if st.Sent != 20 || st.Dropped != 10 {
		t.Fatalf("send stats %+v, want 20 sent / 10 dropped", st)
	}
	if th.reservations != 20 || th.bytes != 20*256 {
		t.Fatalf("throttle saw %d reservations / %d bytes, want 20 / %d",
			th.reservations, th.bytes, 20*256)
	}
}
