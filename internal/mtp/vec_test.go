package mtp

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/netsim"
)

// countingConn records the packet count of every SendBatch call and copies
// every delivered datagram, so tests can assert both the syscall shape
// (calls per batch) and the delivered bytes.
type countingConn struct {
	batches   []int // packets per SendBatch call
	delivered [][]byte
}

func (c *countingConn) SendBatch(pkts []PacketVec) error {
	c.batches = append(c.batches, len(pkts))
	for _, p := range pkts {
		buf := make([]byte, 0, len(p.Hdr)+len(p.Payload))
		buf = append(buf, p.Hdr...)
		buf = append(buf, p.Payload...)
		c.delivered = append(c.delivered, buf)
	}
	return nil
}

func (c *countingConn) TryRecv() ([]byte, bool) { return nil, false }

// TestSendVecConsumesBeforeReturn pins the aliasing contract of the
// vectored send, StreamConn.SendBatch, on the real conns: header and
// payload slices are consumed before the call returns, so a caller
// scribbling both buffers immediately afterwards — exactly what a sender
// reusing its header arena and a storage layer recycling a chunk do —
// cannot corrupt the datagram already on the wire. It also verifies the
// conn never writes into the payload (which on the real stack is an
// immutable cache chunk).
func TestSendVecConsumesBeforeReturn(t *testing.T) {
	mk := func() ([]byte, []byte) {
		hdr := bytes.Repeat([]byte{0xAA}, HeaderSize)
		payload := make([]byte, 1500)
		for i := range payload {
			payload[i] = byte(i)
		}
		return hdr, payload
	}
	check := func(t *testing.T, conn StreamConn, recv func() ([]byte, error)) {
		hdr, payload := mk()
		want := append(append([]byte(nil), hdr...), payload...)
		if err := conn.SendBatch([]PacketVec{{Hdr: hdr, Payload: payload}}); err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			if payload[i] != byte(i) {
				t.Fatal("conn wrote into the payload (would corrupt the cache chunk)")
			}
		}
		// Scribble both buffers the instant SendBatch returns.
		for i := range hdr {
			hdr[i] = 0xFF
		}
		for i := range payload {
			payload[i] = 0xFF
		}
		got, err := recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("delivered datagram corrupted by post-return mutation: conn retained the slices")
		}
	}

	t.Run("netsim", func(t *testing.T) {
		a, b, link := netsim.NewPerfectLink()
		defer link.Close()
		check(t, a, b.Recv)
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
		check(t, conn, lis.Recv)
	})
	t.Run("udp-batch", func(t *testing.T) {
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
		// Three datagrams in one sendmmsg; scribble after the call; all
		// three must arrive intact and in order.
		var pkts []PacketVec
		var want [][]byte
		for i := 0; i < 3; i++ {
			hdr := bytes.Repeat([]byte{byte(0x10 + i)}, HeaderSize)
			payload := bytes.Repeat([]byte{byte(0x20 + i)}, 400+100*i)
			pkts = append(pkts, PacketVec{Hdr: hdr, Payload: payload})
			want = append(want, append(append([]byte(nil), hdr...), payload...))
		}
		if err := conn.SendBatch(pkts); err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			for i := range p.Hdr {
				p.Hdr[i] = 0xFF
			}
			for i := range p.Payload {
				p.Payload[i] = 0xFF
			}
		}
		for i := range want {
			got, err := lis.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("batched datagram %d corrupted or reordered", i)
			}
		}
	})
}

// TestUDPConnAllocs guards the UDP conn's per-call cost, paid once per
// emit step (TryRecv) and once per departure (SendBatch): neither may
// allocate, whether the batch holds one packet or a full coalescing window
// and whether a datagram is waiting or not.
func TestUDPConnAllocs(t *testing.T) {
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
	hdr, err := (&Packet{StreamID: 1, Payload: make([]byte, 64)}).MarshalHeader(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]PacketVec, maxCoalesce)
	for i := range pkts {
		pkts[i] = PacketVec{Hdr: hdr, Payload: make([]byte, 64)}
	}
	send := func(n int) func() {
		return func() {
			if err := conn.SendBatch(pkts[:n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range []int{1, maxCoalesce} {
		if allocs := testing.AllocsPerRun(100, send(n)); allocs != 0 {
			t.Errorf("SendBatch of %d packets allocates %.1f times, want 0", n, allocs)
		}
	}

	// The listener learns the conn as its peer from the first datagram it
	// reads. Nothing has been sent to the conn yet: its socket is empty.
	if _, err := lis.Recv(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := conn.TryRecv(); ok {
			t.Fatal("TryRecv read a datagram nobody sent")
		}
	}); allocs != 0 {
		t.Errorf("TryRecv on an empty socket allocates %.1f times, want 0", allocs)
	}
	const runs = 100
	fb := append([]byte(nil), hdr...)
	for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
		if err := lis.Send(fb); err != nil {
			t.Fatal(err)
		}
	}
	missed := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		// A datagram is queued or about to be: poll until it is read.
		for spins := 0; ; spins++ {
			if _, ok := conn.TryRecv(); ok {
				return
			}
			if spins == 1e6 {
				missed++
				return
			}
		}
	}); allocs != 0 {
		t.Errorf("TryRecv of a waiting datagram allocates %.1f times, want 0", allocs)
	}
	if missed > 0 {
		t.Fatalf("%d of %d loopback datagrams never arrived", missed, runs+1)
	}
}

// TestZeroCopySendCachePristine streams a disk movie — whose frame slices
// alias immutable chunk-cache chunks — through the vectored send path,
// verifies every delivered frame byte-identical to what was stored, and
// then re-reads the movie to prove the resident chunks survived the sends
// untouched: the zero-copy path hands cache memory to the conn without
// ever exposing it to mutation.
func TestZeroCopySendCachePristine(t *testing.T) {
	store, err := moviedb.OpenDiskStore(t.TempDir(), moviedb.DiskConfig{ChunkFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Create(&moviedb.Movie{Name: "pristine"}); err != nil {
		t.Fatal(err)
	}
	rec, err := store.Record("pristine")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 64
	want := make([][]byte, frames)
	for i := range want {
		f := make([]byte, 700)
		for j := range f {
			f[j] = byte(i*31 + j)
		}
		want[i] = f
		if _, err := rec.Append([][]byte{f}); err != nil {
			t.Fatal(err)
		}
	}
	rec.Close()
	m, err := store.Get("pristine")
	if err != nil {
		t.Fatal(err)
	}

	a, b, link := netsim.NewPerfectLink()
	defer link.Close()
	src := m.Open()
	recvDone := make(chan error, 1)
	var got [][]byte
	go func() {
		_, err := ReceiveStream(b, ReceiverConfig{}, func(f Frame) {
			got = append(got, append([]byte(nil), f.Payload...))
		})
		recvDone <- err
	}()
	sender := NewStreamSender(a, StreamConfig{StreamID: 9})
	st, err := sender.Run(src)
	if err != nil || st.Sent != frames {
		t.Fatalf("run: sent %d, err %v", st.Sent, err)
	}
	src.Close()
	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver wedged")
	}
	if len(got) != frames {
		t.Fatalf("delivered %d frames, want %d", len(got), frames)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("delivered frame %d corrupted", i)
		}
	}
	// The cache chunks the payloads aliased must be pristine: a second
	// reader sees the stored bytes.
	src2 := m.Open()
	for i := 0; i < frames; i++ {
		f, err := src2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f, want[i]) {
			t.Fatalf("cache chunk corrupted at frame %d after zero-copy sends", i)
		}
	}
	src2.Close()
}

// TestBatchedSendSyscalls pins the write-coalescing shape: an unpaced
// stream must cost one SendBatch call per maxCoalesce frames — the "≤1
// write syscall per coalesced batch" acceptance bound — followed by one
// call per EOS marker, each a lone header.
func TestBatchedSendSyscalls(t *testing.T) {
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 1024)
	}
	src := moviedb.SliceContent(frames).Open()
	conn := &countingConn{}
	st, err := NewStreamSender(conn, StreamConfig{StreamID: 1}).Run(src)
	if err != nil || st.Sent != 64 {
		t.Fatalf("sent %d, err %v", st.Sent, err)
	}
	if want := []int{maxCoalesce, maxCoalesce, 1, 1, 1}; !slices.Equal(conn.batches, want) {
		t.Fatalf("64 unpaced frames and 3 EOS markers cost SendBatch calls of %v packets, want %v", conn.batches, want)
	}
	if len(conn.delivered) != 64+3 {
		t.Fatalf("delivered %d datagrams", len(conn.delivered))
	}
	for _, eos := range conn.delivered[64:] {
		var p Packet
		if err := p.Unmarshal(eos); err != nil || p.Flags&FlagEOS == 0 || p.Seq != 64 || len(p.Payload) != 0 {
			t.Fatalf("EOS marker %x: %+v, %v", eos, p, err)
		}
	}
	// Spot-check wire integrity of a batched frame.
	var p Packet
	if err := p.Unmarshal(conn.delivered[40]); err != nil {
		t.Fatal(err)
	}
	if p.Seq != 40 || !bytes.Equal(p.Payload, frames[40]) {
		t.Fatalf("batched frame 40 mangled: seq %d", p.Seq)
	}
}

// TestBatchedSendAllocs is the allocation guard for the coalesced send
// path: pulling batches from a resident source and fanning them into a
// batch conn must not allocate per frame — only per-Run setup (sender,
// arenas, batch slice warm-up) may.
func TestBatchedSendAllocs(t *testing.T) {
	frames := make([][]byte, 256)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	src := moviedb.SliceContent(frames).Open()
	conn := &countingConn{}
	run := func() {
		if err := src.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		conn.batches, conn.delivered = conn.batches[:0], conn.delivered[:0]
		s := NewStreamSender(conn, StreamConfig{StreamID: 1})
		st, err := s.Run(src)
		if err != nil || st.Sent != 256 {
			t.Fatalf("sent %d, err %v", st.Sent, err)
		}
	}
	run() // warm pools and the source's batch slice
	allocs := testing.AllocsPerRun(20, func() {
		// The counting conn's per-datagram copy is test instrumentation,
		// not the path under guard; it is the only allocator in deliver.
		run()
	})
	// Per-Run setup: sender + stop channel + header arena + packet slice +
	// conn bookkeeping. 256 frames through the loop must add nothing
	// beyond the counting conn's own per-datagram copies (259) — so the
	// bound is setup (<=8) + instrumentation (259).
	if allocs > 8+259 {
		t.Fatalf("batched send path allocates %.1f per 256-frame run, want <= %d", allocs, 8+259)
	}
}
