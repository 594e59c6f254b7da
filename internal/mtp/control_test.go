package mtp

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/netsim"
)

// Control-at-once tests: Seek, Pause, Resume and Stop act on the emitter
// when they are called, not when the frame it holds departs. Each runs over
// a simulated link and over loopback UDP.

// seen is one data packet as it arrived.
type seen struct {
	seq   uint32
	flags uint8
	at    time.Time
}

// tap records the header of every data and EOS packet a receiver reads.
type tap struct {
	PacketConn
	mu   sync.Mutex
	pkts []seen
}

func (c *tap) Recv() ([]byte, error) {
	data, err := c.PacketConn.Recv()
	var p Packet
	if err == nil && p.Unmarshal(data) == nil {
		c.mu.Lock()
		c.pkts = append(c.pkts, seen{p.Seq, p.Flags, time.Now()})
		c.mu.Unlock()
	}
	return data, err
}

func (c *tap) snapshot() []seen {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]seen(nil), c.pkts...)
}

// awaitData blocks until n data packets have arrived.
func (c *tap) awaitData(t *testing.T, n int) []seen {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if pkts := c.snapshot(); len(pkts) >= n {
			return pkts
		}
	}
	t.Fatalf("only %d of %d packets arrived", len(c.snapshot()), n)
	return nil
}

// awaitFrom blocks until a packet with a sequence number of at least from
// has arrived, and returns the packets before it and that packet.
func (c *tap) awaitFrom(t *testing.T, from uint32) ([]seen, seen) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		pkts := c.snapshot()
		for i, p := range pkts {
			if p.seq >= from {
				return pkts[:i], p
			}
		}
	}
	t.Fatalf("no packet from %d on arrived", from)
	return nil, seen{}
}

// eachConn runs fn once per conn kind with a connected sender/receiver pair.
func eachConn(t *testing.T, fn func(t *testing.T, send StreamConn, recv *tap)) {
	t.Run("simnet", func(t *testing.T) {
		a, b, link := netsim.NewLink(netsim.Config{}, netsim.Config{})
		defer link.Close()
		fn(t, a, &tap{PacketConn: b})
	})
	t.Run("udp", func(t *testing.T) {
		lis, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback UDP:", err)
		}
		defer lis.Close()
		conn, err := DialUDP(lis.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fn(t, conn, &tap{PacketConn: lis})
	})
}

// runResult is what the sender's Run returned.
type runResult struct {
	st  StreamStats
	err error
}

// controlled starts a paced stream of a resident movie (so the producer
// fetches whole batches of maxCoalesce frames) and its receiver. Run's
// outcome comes back on its channel, to be checked by awaitRun: Run may
// return after the test has ended, when reporting from its goroutine would
// panic.
func controlled(t *testing.T, send StreamConn, recv *tap, fps int) (*StreamSender, chan runResult, chan RecvStats) {
	t.Helper()
	frames := make([][]byte, 4000)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 200)
	}
	recvDone := make(chan RecvStats, 1)
	go func() {
		st, _ := ReceiveStream(recv, ReceiverConfig{}, nil)
		recvDone <- st
	}()
	s := NewStreamSender(send, StreamConfig{StreamID: 21, FrameRate: fps})
	runDone := make(chan runResult, 1)
	go func() {
		st, err := s.Run(moviedb.SliceContent(frames).Open())
		runDone <- runResult{st, err}
	}()
	return s, runDone, recvDone
}

// awaitRun waits for the sender's Run to return and fails on its error.
func awaitRun(t *testing.T, runDone chan runResult) StreamStats {
	t.Helper()
	r := await(t, "sender", runDone)
	if r.err != nil {
		t.Fatalf("sender: %v", r.err)
	}
	return r.st
}

func await[T any](t *testing.T, what string, ch chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not finish", what)
		panic("unreachable")
	}
}

// TestSeekDiscardsHeldBatch seeks while the emitter holds most of a batch,
// right after a departure — the worst moment for a sender that acts on a
// seek when its held frame leaves (a whole 50 ms period later). The next
// packet out must be the target, with FlagSync, well inside that period, no
// frame of the old batch may follow the seek, and nothing is booked lost.
func TestSeekDiscardsHeldBatch(t *testing.T) {
	eachConn(t, func(t *testing.T, send StreamConn, recv *tap) {
		const period = 50 * time.Millisecond
		s, runDone, recvDone := controlled(t, send, recv, int(time.Second/period))
		recv.awaitData(t, 3)
		before := s.Position()
		if before >= maxCoalesce-1 {
			t.Fatalf("position %d: the first batch is no longer held", before)
		}
		sought := time.Now()
		s.SeekTo(1000)
		pos := s.Position()
		old, first := recv.awaitFrom(t, 1000)
		for _, p := range old {
			if int64(p.seq) > before {
				t.Fatalf("frame %d of the discarded batch left after the seek", p.seq)
			}
		}
		if first.seq != 1000 || first.flags&FlagSync == 0 {
			t.Fatalf("first packet after the seek: seq %d flags %#x, want 1000 with FlagSync", first.seq, first.flags)
		}
		// SeekTo wakes the producer, which may fetch and emit the target
		// before Position is read: the position is the target plus the
		// frames of its segment already departed. One period is 50 ms, so
		// that is at most the target itself, the first packet checked above.
		if pos != 1000 && pos != 1001 {
			t.Fatalf("position %d right after SeekTo(1000)", pos)
		}
		if d := first.at.Sub(sought); d > period/2 {
			t.Fatalf("target frame arrived %v after SeekTo; a seek must not wait for a departure", d)
		}
		s.Stop()
		if st := awaitRun(t, runDone); st.Done || st.Dropped != 0 {
			t.Fatalf("send stats %+v", st)
		}
		if rst := await(t, "receiver", recvDone); rst.Lost != 0 || rst.Resyncs != 1 {
			t.Fatalf("recv stats %+v, want no loss and one resync", rst)
		}
	})
}

// TestPauseSeekStopWhilePaused: after Pause returns no frame departs — not
// even the one whose slot comes a tick later — a seek while paused moves
// the position at once and still sends nothing, Resume continues at the
// target with FlagSync, and Stop while paused unwinds Run with the EOS
// markers at the position reached.
func TestPauseSeekStopWhilePaused(t *testing.T) {
	eachConn(t, func(t *testing.T, send StreamConn, recv *tap) {
		s, runDone, recvDone := controlled(t, send, recv, 500)
		recv.awaitData(t, 10)
		s.Pause()
		paused := s.Position()
		quiet := func(what string, from int64) {
			t.Helper()
			time.Sleep(20 * time.Millisecond) // ten periods, twenty ticks
			for _, p := range recv.snapshot() {
				if int64(p.seq) >= from {
					t.Fatalf("%s: frame %d departed", what, p.seq)
				}
			}
		}
		quiet("paused", paused)

		s.SeekTo(2000)
		if pos := s.Position(); pos != 2000 {
			t.Fatalf("position %d right after SeekTo(2000) while paused", pos)
		}
		quiet("paused after seek", paused)

		n := len(recv.snapshot())
		s.Resume()
		if p := recv.awaitData(t, n+1)[n]; p.seq != 2000 || p.flags&FlagSync == 0 {
			t.Fatalf("first packet after resume: seq %d flags %#x, want 2000 with FlagSync", p.seq, p.flags)
		}

		recv.awaitData(t, n+5)
		s.Pause()
		paused = s.Position()
		s.Stop()
		st := awaitRun(t, runDone)
		if st.Done || st.Pos != paused {
			t.Fatalf("stopped while paused at %d: %+v", paused, st)
		}
		rst := await(t, "receiver", recvDone)
		if rst.Lost != 0 || rst.Resyncs != 1 {
			t.Fatalf("recv stats %+v, want no loss and one resync", rst)
		}
		pkts := recv.snapshot()
		if last := pkts[len(pkts)-1]; last.flags&FlagEOS == 0 || int64(last.seq) != paused {
			t.Fatalf("last packet seq %d flags %#x, want EOS at %d", last.seq, last.flags, paused)
		}
		for _, p := range pkts {
			if p.flags&FlagEOS == 0 && int64(p.seq) >= paused {
				t.Fatalf("frame %d departed after the final pause", p.seq)
			}
		}
	})
}

// TestPacedEmitAllocs guards the paced emit path the way
// TestFrameSourceSendAllocs guards the unpaced one: frames leaving from the
// wheel's tick — arm, callback, marshal, send, one producer wake-up per
// batch — must not allocate, only per-Run setup may.
func TestPacedEmitAllocs(t *testing.T) {
	frames := make([][]byte, 128)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 1024)
	}
	src := moviedb.SliceContent(frames).Open()
	run := func() {
		if err := src.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		s := NewStreamSender(sinkConn{}, StreamConfig{StreamID: 1, FrameRate: 2000})
		if st, err := s.Run(src); err != nil || st.Sent != len(frames) || st.Dropped != 0 {
			t.Fatalf("sent %d dropped %d, err %v", st.Sent, st.Dropped, err)
		}
	}
	run() // warm the wheel's tick goroutine and its due list
	if allocs := testing.AllocsPerRun(5, run); allocs > 8 {
		t.Fatalf("paced emit path allocates %.1f per %d-frame run, want <= 8", allocs, len(frames))
	}
}
