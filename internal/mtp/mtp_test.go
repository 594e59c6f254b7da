package mtp

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/netsim"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		Flags:    FlagKey,
		StreamID: 7,
		Seq:      42,
		TSMicro:  123456789,
		Payload:  []byte("frame data"),
	}
	enc, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != p.Flags || got.StreamID != p.StreamID || got.Seq != p.Seq ||
		got.TSMicro != p.TSMicro || !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestPacketRoundTripQuick(t *testing.T) {
	f := func(flags byte, id, seq uint32, ts uint64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		p := Packet{Flags: flags, StreamID: id, Seq: seq, TSMicro: ts, Payload: payload}
		enc, err := p.Marshal(nil)
		if err != nil {
			return false
		}
		got, err := Unmarshal(enc)
		if err != nil {
			return false
		}
		return got.Flags == flags && got.StreamID == id && got.Seq == seq &&
			got.TSMicro == ts && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Unmarshal(make([]byte, HeaderSize-1)); err == nil {
		t.Error("short accepted")
	}
	bad := make([]byte, HeaderSize)
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	p := Packet{}
	enc, _ := p.Marshal(nil)
	enc[2] = 99
	if _, err := Unmarshal(enc); err == nil {
		t.Error("bad version accepted")
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	p := Packet{Payload: make([]byte, MaxPayload+1)}
	if _, err := p.Marshal(nil); err == nil {
		t.Error("oversize payload accepted")
	}
}

// streamOver runs a full send/receive over the given netsim configs and
// returns both stats plus the delivered frames.
func streamOver(t *testing.T, frames [][]byte, cfg netsim.Config, scfg StreamConfig, rcfg ReceiverConfig) (StreamStats, RecvStats, []Frame) {
	t.Helper()
	a, b, link := netsim.NewLink(cfg, netsim.Config{})
	defer link.Close()
	var (
		got     []Frame
		rstats  RecvStats
		rerr    error
		wg      sync.WaitGroup
		deliver = func(f Frame) {
			cp := f
			cp.Payload = append([]byte(nil), f.Payload...)
			got = append(got, cp)
		}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rstats, rerr = ReceiveStream(b, rcfg, deliver)
	}()
	sstats, err := NewStreamSender(a, scfg).Run(moviedb.SliceContent(frames).Open())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
	return sstats, rstats, got
}

func TestStreamPerfectPath(t *testing.T) {
	movie := moviedb.Synthesize(moviedb.SynthConfig{Name: "perfect", Frames: 50, FrameSize: 1000})
	sstats, rstats, got := streamOver(t, movie.Frames, netsim.Config{},
		StreamConfig{StreamID: 1}, ReceiverConfig{})
	if sstats.Sent != 50 {
		t.Errorf("sent %d packets", sstats.Sent)
	}
	if rstats.Delivered != 50 || rstats.Lost != 0 {
		t.Errorf("recv stats = %+v", rstats)
	}
	for i, f := range got {
		if f.Seq != uint32(i) {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
		if !bytes.Equal(f.Payload, movie.Frames[i]) {
			t.Fatalf("frame %d payload corrupted", i)
		}
	}
}

func TestStreamLossyPath(t *testing.T) {
	movie := moviedb.Synthesize(moviedb.SynthConfig{Name: "lossy", Frames: 400, FrameSize: 200})
	_, rstats, got := streamOver(t, movie.Frames,
		netsim.Config{LossProb: 0.1, Seed: 7},
		StreamConfig{StreamID: 2, EOSRepeats: 10}, ReceiverConfig{})
	if rstats.Lost == 0 {
		t.Error("no loss recorded on a lossy path")
	}
	if rstats.Delivered+rstats.Lost != 400 {
		t.Errorf("delivered %d + lost %d != 400", rstats.Delivered, rstats.Lost)
	}
	if rstats.DeliveryRatio() < 0.8 || rstats.DeliveryRatio() >= 1.0 {
		t.Errorf("delivery ratio = %f", rstats.DeliveryRatio())
	}
	// Delivered frames stay in order and uncorrupted.
	last := int64(-1)
	for _, f := range got {
		if int64(f.Seq) <= last {
			t.Fatalf("frame %d delivered out of order", f.Seq)
		}
		last = int64(f.Seq)
		if !bytes.Equal(f.Payload, movie.Frames[f.Seq]) {
			t.Fatalf("frame %d corrupted", f.Seq)
		}
	}
}

// TestStreamJitteredPathReorders paces a stream over a link whose seeded
// jitter exceeds the frame spacing, so frames overtake each other: the
// receiver must still emit them in order, and its jitter estimate must lie
// in a band around the estimate the link's own delays make.
func TestStreamJitteredPathReorders(t *testing.T) {
	const (
		frames = 100
		rate   = 200 // one frame every 5 ms
		delay  = time.Millisecond
		jitter = 15 * time.Millisecond
		seed   = 3
	)
	movie := moviedb.Synthesize(moviedb.SynthConfig{Name: "jitter", Frames: frames, FrameSize: 100})
	_, rstats, got := streamOver(t, movie.Frames,
		netsim.Config{Delay: delay, Jitter: jitter, Seed: seed},
		StreamConfig{StreamID: 3, FrameRate: rate, EOSRepeats: 10}, ReceiverConfig{Window: 64})
	if rstats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	last := int64(-1)
	for _, f := range got {
		if int64(f.Seq) <= last {
			t.Fatalf("receiver emitted out-of-order frame %d after %d", f.Seq, last)
		}
		last = int64(f.Seq)
	}
	want, overtakes := linkJitter(frames, time.Second/rate, delay, jitter, seed)
	if overtakes == 0 || want == 0 {
		t.Fatalf("the seeded delays reorder nothing (%d overtakes, jitter %v): the test checks nothing", overtakes, want)
	}
	if rstats.Reordered == 0 {
		t.Errorf("no frame arrived out of order; the link's delays overtake %d times", overtakes)
	}
	// What a receiver adds on top of the link — the sender's pacing error
	// within a wheel tick, the link's and the reader's wake-up latency —
	// is small against the link's millisecond-scale spread.
	lo, hi := want/2, want*3/2
	est := time.Duration(rstats.JitterMicro) * time.Microsecond
	t.Logf("jitter estimate %v; the link's delays make %v (%d overtakes)", est, want, overtakes)
	if est < lo || est > hi {
		t.Errorf("jitter estimate %v outside [%v, %v] around the link's %v", est, lo, hi, want)
	}
}

// linkJitter replays netsim's seeded delay draws for n frames sent every
// period and returns the RFC 3550 estimate an exact receiver would compute
// (frames in arrival order, transit differences exact), and how many
// frames arrive before one sent earlier.
func linkJitter(n int, period, delay, jitter time.Duration, seed int64) (time.Duration, int) {
	rng := rand.New(rand.NewSource(seed))
	transit := make([]time.Duration, n)
	order := make([]int, n)
	for i := range transit {
		transit[i] = delay + time.Duration(rng.Int63n(int64(jitter)+1))
		order[i] = i
	}
	arrive := func(i int) time.Duration { return time.Duration(i)*period + transit[i] }
	sort.SliceStable(order, func(a, b int) bool { return arrive(order[a]) < arrive(order[b]) })
	var j16 int64
	overtakes := 0
	for k := 1; k < n; k++ {
		if order[k] < order[k-1] {
			overtakes++
		}
		d := int64(transit[order[k]] - transit[order[k-1]])
		if d < 0 {
			d = -d
		}
		j16 += d - (j16+8)>>4
	}
	return time.Duration(j16 >> 4), overtakes
}

func TestPacingHoldsFrameRate(t *testing.T) {
	movie := moviedb.Synthesize(moviedb.SynthConfig{Name: "paced", Frames: 20, FrameSize: 64})
	a, b, link := netsim.NewLink(netsim.Config{}, netsim.Config{})
	defer link.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = ReceiveStream(b, ReceiverConfig{}, nil)
	}()
	start := time.Now()
	// 20 frames at 100 fps = at least 190 ms of pacing.
	sstats, err := NewStreamSender(a, StreamConfig{FrameRate: 100}).Run(moviedb.SliceContent(movie.Frames).Open())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("20 frames at 100fps took %v, want >= ~190ms", elapsed)
	}
	if sstats.Sent != 20 {
		t.Errorf("sent %d", sstats.Sent)
	}
}

func TestStreamOverUDP(t *testing.T) {
	lis, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	movie := moviedb.Synthesize(moviedb.SynthConfig{Name: "udp", Frames: 30, FrameSize: 1200})
	var (
		rstats RecvStats
		rerr   error
		count  int
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rstats, rerr = ReceiveStream(lis, ReceiverConfig{}, func(Frame) { count++ })
	}()
	conn, err := DialUDP(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := NewStreamSender(conn, StreamConfig{StreamID: 9}).Run(moviedb.SliceContent(movie.Frames).Open()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
	// Loopback UDP may still drop under pressure; expect near-total delivery.
	if count < 25 {
		t.Errorf("delivered %d of 30 over loopback UDP (stats %+v)", count, rstats)
	}
}

func TestReceiverIgnoresForeignStreams(t *testing.T) {
	a, b, link := netsim.NewLink(netsim.Config{}, netsim.Config{})
	defer link.Close()
	var delivered int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = ReceiveStream(b, ReceiverConfig{ExpectedStreamID: 5}, func(Frame) { delivered++ })
	}()
	// Interleave packets of stream 6 (foreign) and 5 (expected).
	for i := 0; i < 5; i++ {
		for _, id := range []uint32{6, 5} {
			p := Packet{StreamID: id, Seq: uint32(i), Payload: []byte{byte(i)}}
			enc, _ := p.Marshal(nil)
			if err := a.Send(enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	eos, _ := (&Packet{StreamID: 5, Seq: 5, Flags: FlagEOS}).Marshal(nil)
	if err := a.Send(eos); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if delivered != 5 {
		t.Errorf("delivered %d, want 5", delivered)
	}
}
