package transport

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

func TestDeadlineConnPassesTraffic(t *testing.T) {
	a, b := Pipe(4)
	d := NewDeadlineConn(a)
	defer d.Close()
	defer b.Close()
	if err := d.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if p, err := b.Recv(); err != nil || string(p) != "ping" {
		t.Fatalf("peer got %q, %v", p, err)
	}
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if p, err := d.Recv(); err != nil || string(p) != "pong" {
		t.Fatalf("deadline side got %q, %v", p, err)
	}
}

func TestDeadlineConnTimesOutAndRecovers(t *testing.T) {
	a, b := Pipe(4)
	d := NewDeadlineConn(a)
	defer d.Close()
	defer b.Close()

	d.SetRecvDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	if _, err := d.Recv(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Recv on silent peer = %v, want ErrDeadline", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("timed out after %v", took)
	}

	// The late message is not lost: it is delivered to the next Recv.
	if err := b.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	d.SetRecvDeadline(time.Now().Add(2 * time.Second))
	if p, err := d.Recv(); err != nil || string(p) != "late" {
		t.Fatalf("post-timeout Recv = %q, %v", p, err)
	}

	// Zero time removes the bound.
	d.SetRecvDeadline(time.Time{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		b.Send([]byte("unbounded"))
	}()
	if p, err := d.Recv(); err != nil || string(p) != "unbounded" {
		t.Fatalf("unbounded Recv = %q, %v", p, err)
	}
}

func TestDeadlineConnPeerCloseIsTerminal(t *testing.T) {
	a, b := Pipe(4)
	d := NewDeadlineConn(a)
	defer d.Close()
	b.Close()
	for i := 0; i < 2; i++ {
		if _, err := d.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("Recv %d after peer close = %v, want EOF", i, err)
		}
	}
}

func TestDeadlineConnLocalCloseUnblocksRecv(t *testing.T) {
	a, _ := Pipe(4)
	d := NewDeadlineConn(a)
	got := make(chan error, 1)
	go func() {
		_, err := d.Recv()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	d.Close()
	select {
	case err := <-got:
		if err != io.EOF {
			t.Fatalf("Recv across local close = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on local close")
	}
}

// hiddenConn hides a pipe's type, so NewDeadlineConn treats it as a conn
// without an inbox and adopts it.
type hiddenConn struct{ Conn }

// TestDeadlineRecvAllocs guards the hand-coded client's receive path on
// both kinds of conn: a Recv under a deadline that finds its message
// queued allocates nothing and arms no timer — on a pipe, which keeps the
// deadline itself, and on an adopted conn, whose reader has moved the
// message into the inbox.
func TestDeadlineRecvAllocs(t *testing.T) {
	for _, adopt := range []bool{false, true} {
		const runs = 200
		a, b := Pipe(runs + 8)
		var inner Conn = a
		if adopt {
			inner = hiddenConn{a}
		}
		d := NewDeadlineConn(inner)
		ad, adopted := d.(*adoptedConn)
		if adopted != adopt {
			t.Fatalf("adopt=%v: NewDeadlineConn returned %T", adopt, d)
		}
		// Queue every message up front: the pipe's copy on Send is the only
		// allocation of a message, and it stays out of the measured runs.
		for i := 0; i < runs+2; i++ {
			if err := b.Send([]byte("m")); err != nil {
				t.Fatal(err)
			}
		}
		// The adopted inbox holds one message: before each Recv, wait until
		// the reader has moved the next one in.
		queued := func() {
			for adopted && len(ad.q) == 0 {
				runtime.Gosched()
			}
		}
		queued()
		d.SetRecvDeadline(time.Now().Add(time.Minute))
		if _, err := d.Recv(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			queued()
			d.SetRecvDeadline(time.Now().Add(time.Minute))
			if _, err := d.Recv(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("adopt=%v: deadline Recv allocates %.1f times, want 0", adopt, allocs)
		}
		if arms := a.(*pipeConn).arms; arms != 0 {
			t.Fatalf("adopt=%v: a Recv that finds its message queued armed the pipe's timer %d times", adopt, arms)
		}
		if adopted && ad.arms != 0 {
			t.Fatalf("a Recv that finds its message queued armed the adopted inbox's timer %d times", ad.arms)
		}
		d.Close()
		b.Close()
	}
}

// BenchmarkDeadlinePingPong is the hand-coded client's receive path: each
// round trip sets a deadline moved forward, sends, and waits in Recv for
// the echo of a peer that serves with plain Recv and Send.
func BenchmarkDeadlinePingPong(b *testing.B) {
	a, peer := Pipe(0)
	defer peer.Close()
	go func() {
		for {
			p, err := peer.Recv()
			if err != nil || peer.Send(p) != nil {
				return
			}
		}
	}()
	d := NewDeadlineConn(a)
	defer d.Close()
	msg := []byte("ping")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SetRecvDeadline(time.Now().Add(time.Minute))
		if err := d.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
