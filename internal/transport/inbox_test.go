package transport

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// flood is a TPKT peer over net.Pipe that, once started, sends total
// two-octet messages (their index) at the other end. A net.Pipe write
// waits until the reader has taken all of it, so sent counts exactly the
// messages the other end has read. The peer closes once it is done or its
// send fails, then closes done.
type flood struct {
	peer  Conn
	total int
	sent  atomic.Int64
	done  chan struct{}
}

// newFlood returns the flood and the TPKT conn it floods.
func newFlood(total int) (Conn, *flood) {
	near, far := net.Pipe()
	return NewTPKT(near), &flood{peer: NewTPKT(far), total: total, done: make(chan struct{})}
}

func (f *flood) start() {
	go func() {
		defer close(f.done)
		defer f.peer.Close()
		for i := 0; i < f.total; i++ {
			if f.peer.Send([]byte{byte(i >> 8), byte(i)}) != nil {
				return
			}
			f.sent.Add(1)
		}
	}()
}

// awaitFull waits until the flood has filled in to its bound: capacity
// messages queued, one more in the reader's hand. Then it checks that the
// peer's writes stay blocked.
func awaitFull(t *testing.T, in *inbox, capacity int, f *flood) {
	t.Helper()
	if cap(in.q) != capacity {
		t.Fatalf("inbox capacity %d, want %d", cap(in.q), capacity)
	}
	want := int64(capacity + 1)
	full := func() bool { return len(in.q) == capacity && f.sent.Load() == want }
	for deadline := time.Now().Add(10 * time.Second); !full(); {
		if time.Now().After(deadline) {
			t.Fatalf("inbox never filled: %d queued, %d sent", len(in.q), f.sent.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if q, s := len(in.q), f.sent.Load(); q != capacity || s != want {
		t.Fatalf("past the bound: %d queued, %d sent; want %d and %d (the peer blocked)",
			q, s, capacity, want)
	}
}

// readers counts goroutines running an adopted conn's reader.
func readers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("(*adoptedConn).read("))
}

// TestAdoptedInboxBoundDeadline floods an adopted TPKT conn, reached
// through NewDeadlineConn, with three of the module's inboxes' worth while
// nothing reads: the conn holds one message queued and one in the reader's
// hand, and the peer blocks. Draining then delivers every message in
// order, and the peer's EOF after them, for good.
func TestAdoptedInboxBoundDeadline(t *testing.T) {
	const total = 3 * defaultCapacity
	conn, f := newFlood(total)
	d := NewDeadlineConn(conn)
	defer d.Close()
	f.start()
	awaitFull(t, &d.(*adoptedConn).inbox, 1, f)
	d.SetRecvDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < total; i++ {
		p, err := d.Recv()
		if err != nil || !bytes.Equal(p, []byte{byte(i >> 8), byte(i)}) {
			t.Fatalf("Recv %d = %x, %v", i, p, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Recv(); err != io.EOF {
			t.Fatalf("Recv %d past the flood = %v, want EOF", i, err)
		}
	}
	<-f.done
}

// TestAdoptedInboxBoundProvider is the same flood at a TPKT conn under
// ConnProviderDef, whose module is not stepped while the peer floods: the
// module's inbox holds its bound, then delivers every message in order and
// one TDisInd.
func TestAdoptedInboxBoundProvider(t *testing.T) {
	const total = 3 * defaultCapacity
	conn, f := newFlood(total)
	gone := 0
	st, rec, prov := hookedProvider(t, conn, &gone)
	// The module adopts its conn on its first Step.
	runIdle(t, st)
	b := prov.Def().External.(*connBody)
	f.start()
	awaitFull(t, b.in, defaultCapacity, f)
	for deadline := time.Now().Add(10 * time.Second); len(rec.data) < total || rec.dis == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d, TDisInd %d", len(rec.data), total, rec.dis)
		}
		if _, err := st.RunUntilIdle(100 * total); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range rec.data {
		if p != string([]byte{byte(i >> 8), byte(i)}) {
			t.Fatalf("message %d = %x", i, p)
		}
	}
	<-f.done
	runIdle(t, st)
	if len(rec.data) != total || rec.dis != 1 || gone != 1 {
		t.Fatalf("delivered %d of %d, TDisInd %d, onGone %d; want every message, then 1 and 1",
			len(rec.data), total, rec.dis, gone)
	}
	b.conn.Close()
}

// TestAdoptedInboxCloseWhileFull closes an adopted conn while its reader
// is blocked on the full inbox: the reader is released, and with it the
// peer, whose next write fails. No goroutine stays behind.
func TestAdoptedInboxCloseWhileFull(t *testing.T) {
	conn, f := newFlood(3 * defaultCapacity)
	d := NewDeadlineConn(conn)
	f.start()
	awaitFull(t, &d.(*adoptedConn).inbox, 1, f)
	d.Close()
	select {
	case <-f.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the peer stayed blocked after Close")
	}
	for deadline := time.Now().Add(5 * time.Second); readers() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d adopted readers still running after Close", readers())
		}
		time.Sleep(time.Millisecond)
	}
	// The message queued before the Close still comes first, then EOF.
	if p, err := d.Recv(); err != nil || !bytes.Equal(p, []byte{0, 0}) {
		t.Fatalf("Recv after Close = %x, %v", p, err)
	}
	if _, err := d.Recv(); err != io.EOF {
		t.Fatalf("Recv past the queue = %v, want EOF", err)
	}
}
