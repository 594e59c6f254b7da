package spa

import (
	"testing"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
)

// Tests of the play bound: a Count-bounded play ends at From+Count, which
// the sender holds as its end position.

// tap keeps the header of every packet its receiver reads. Read pkts only
// after the receiver has returned.
type tap struct {
	mtp.PacketConn
	pkts []mtp.Packet
}

func (c *tap) Recv() ([]byte, error) {
	data, err := c.PacketConn.Recv()
	var p mtp.Packet
	if err == nil && p.Unmarshal(data) == nil {
		p.Payload = nil
		c.pkts = append(c.pkts, p)
	}
	return data, err
}

// receiveTapped is receive with a tap on the receiving endpoint.
func receiveTapped(t *testing.T, sim *SimNet, addr string) (*tap, chan mtp.RecvStats) {
	t.Helper()
	end, err := sim.Listen(addr, netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := &tap{PacketConn: end}
	done := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(c, mtp.ReceiverConfig{}, nil)
		done <- st
	}()
	return c, done
}

// TestCountBoundsARecordingPlay: a bounded play of a movie that is still
// recording, and shorter than the bound when the play starts, completes at
// Count while the recording goes on past it — it neither ends at the length
// the movie had nor waits at the live edge for frames beyond the bound.
func TestCountBoundsARecordingPlay(t *testing.T) {
	a, sim, log, _ := newTestAgent(t)
	st := moviedb.NewMemStore()
	if err := st.Create(&moviedb.Movie{Name: "live", Frames: frames(3)}); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Record("live")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	m, err := st.Get("live")
	if err != nil {
		t.Fatal(err)
	}
	done := receive(t, sim, "live/v", netsim.Config{}, mtp.ReceiverConfig{})
	if err := a.Play(1, "live/v", m.Open(), PlayOptions{Count: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Append(frames(10)); err != nil {
		t.Fatal(err)
	}
	ev := log.await(t, EventCompleted, 1)
	if ev.Position != 6 || ev.Stats.Sent != 6 {
		t.Fatalf("bounded play of a recording movie: %+v", ev)
	}
	if rst := <-done; rst.Delivered != 6 || rst.Lost != 0 {
		t.Fatalf("recv stats %+v", rst)
	}
}

// TestSeekPastBoundEndsCleanly: a seek beyond a play's bound but inside the
// movie is valid and ends the stream as a seek to the end of the movie
// does — the EOS carries the jump as FlagSync and the receiver books no
// loss.
func TestSeekPastBoundEndsCleanly(t *testing.T) {
	a, sim, log, _ := newTestAgent(t)
	recv, done := receiveTapped(t, sim, "c/v")
	if err := a.Play(2, "c/v", source(100, 64), PlayOptions{FrameRate: 200, Count: 50}); err != nil {
		t.Fatal(err)
	}
	awaitSent(t, a, 2, 5)
	if err := a.SeekStream(2, 80); err != nil {
		t.Fatal(err)
	}
	if ev := log.await(t, EventCompleted, 2); ev.Position != 80 {
		t.Fatalf("completion after a seek past the bound: %+v", ev)
	}
	rst := <-done
	if rst.Lost != 0 || rst.Resyncs != 1 || rst.Delivered >= 50 {
		t.Fatalf("recv stats %+v, want no loss and one resync", rst)
	}
	last := recv.pkts[len(recv.pkts)-1]
	if last.Flags&mtp.FlagEOS == 0 || last.Flags&mtp.FlagSync == 0 || last.Seq != 80 {
		t.Fatalf("last packet seq %d flags %#x, want EOS with FlagSync at 80", last.Seq, last.Flags)
	}
}

// TestBoundedPlayCoalesces: a bounded play of a resident movie still sends
// coalesced batches, and none of them reaches past the bound.
func TestBoundedPlayCoalesces(t *testing.T) {
	a, sim, log, _ := newTestAgent(t)
	recv, done := receiveTapped(t, sim, "c/v")
	before := mtp.Delivery()
	src := moviedb.SliceContent(frames(100)).Open()
	if err := a.Play(3, "c/v", src, PlayOptions{From: 10, Count: 40}); err != nil {
		t.Fatal(err)
	}
	if ev := log.await(t, EventCompleted, 3); ev.Position != 50 || ev.Stats.Sent != 40 {
		t.Fatalf("bounded play event %+v", ev)
	}
	if rst := <-done; rst.Delivered != 40 || rst.Lost != 0 {
		t.Fatalf("recv stats %+v", rst)
	}
	if n := mtp.Delivery().BatchFrames - before.BatchFrames; n == 0 {
		t.Fatal("a bounded play of a resident movie sent no coalesced batch")
	}
	for _, p := range recv.pkts {
		if p.Flags&mtp.FlagEOS == 0 && p.Seq >= 50 {
			t.Fatalf("frame %d at or past the bound was sent", p.Seq)
		}
	}
}
