package transport

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"xmovie/internal/estelle"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	if err := a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil || string(got) != "hello" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	if err := b.Send([]byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv()
	if err != nil || string(got) != "world" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestPipeSendCopiesBuffer(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	buf := []byte("abc")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, err := b.Recv()
	if err != nil || string(got) != "abc" {
		t.Fatalf("Recv = %q, %v (send must copy)", got, err)
	}
}

func TestPipeCloseGivesEOF(t *testing.T) {
	a, b := Pipe(0)
	if err := a.Send([]byte("last")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Queued data is still readable, then EOF.
	if got, err := b.Recv(); err != nil || string(got) != "last" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("Recv after close = %v, want EOF", err)
	}
	if err := a.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestPipeRecvUnblocksOnLocalClose(t *testing.T) {
	a, _ := Pipe(0)
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Errorf("Recv = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestTPKTOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		for {
			p, err := conn.Recv()
			if err != nil {
				return
			}
			if err := conn.Send(append([]byte("echo:"), p...)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()

	conn, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("a"), bytes.Repeat([]byte("b"), 10000), {}}
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte("echo:"), m...)
		if !bytes.Equal(got, want) {
			t.Errorf("echo of %d bytes mismatched", len(m))
		}
	}
	conn.Close()
	wg.Wait()
}

func TestTPKTRejectsOversize(t *testing.T) {
	a, b := Pipe(0)
	_ = b
	defer a.Close()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			_, _ = c.Recv()
		}
	}()
	conn, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(make([]byte, 70000)); err == nil {
		t.Error("oversize TPKT send accepted")
	}
}

// sessionUserDef is a tiny T-service user for exercising providers: it
// connects, sends `n` data units, and counts what comes back.
type tUser struct {
	sent     int
	received int
	n        int
	initiate bool
	done     bool
}

func tUserDef(name string, n int, initiate bool) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name:   name,
		Attr:   estelle.SystemProcess,
		IPs:    []estelle.IPDef{{Name: "T", Channel: ServiceChannel, Role: "user"}},
		States: []string{"Idle", "Connecting", "Connected", "Closed"},
		Init: func(ctx *estelle.Ctx) {
			ctx.SetBody(&tUser{n: n, initiate: initiate})
		},
		Trans: []estelle.Trans{
			{
				Name: "start", From: []string{"Idle"}, To: "Connecting",
				Provided: func(ctx *estelle.Ctx) bool { return ctx.Body().(*tUser).initiate },
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("T", "TConReq", "peer")
				},
			},
			{
				Name: "accept", From: []string{"Idle"}, When: estelle.On("T", "TConInd"), To: "Connected",
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("T", "TConResp")
				},
			},
			{
				Name: "connected", From: []string{"Connecting"}, When: estelle.On("T", "TConCnf"), To: "Connected",
				Action: func(ctx *estelle.Ctx) {
					st := ctx.Body().(*tUser)
					ctx.Output("T", "TDatReq", []byte{byte(st.sent)})
					st.sent++
				},
			},
			{
				Name: "echo", From: []string{"Connected"}, When: estelle.On("T", "TDatInd"),
				Action: func(ctx *estelle.Ctx) {
					st := ctx.Body().(*tUser)
					st.received++
					if st.initiate {
						if st.sent < st.n {
							ctx.Output("T", "TDatReq", []byte{byte(st.sent)})
							st.sent++
						} else if !st.done {
							st.done = true
							ctx.Output("T", "TDisReq")
						}
					} else {
						// Echo back.
						ctx.Output("T", "TDatReq", ctx.Msg.Bytes(0))
					}
				},
			},
			{
				Name: "peerGone", When: estelle.On("T", "TDisInd"), To: "Closed",
				Action: func(ctx *estelle.Ctx) { ctx.Body().(*tUser).done = true },
			},
		},
	}
}

func TestPipeProviderModule(t *testing.T) {
	rt := estelle.NewRuntime(estelle.WithStrict())
	pipe, err := rt.AddSystem(SystemPipeProviderDef(), "pipe")
	if err != nil {
		t.Fatal(err)
	}
	initiator, err := rt.AddSystem(tUserDef("Initiator", 10, true), "init")
	if err != nil {
		t.Fatal(err)
	}
	responder, err := rt.AddSystem(tUserDef("Responder", 0, false), "resp")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(initiator.IP("T"), pipe.IP("A")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(responder.IP("T"), pipe.IP("B")); err != nil {
		t.Fatal(err)
	}
	if _, err := estelle.NewStepper(rt).RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	st := initiator.Body().(*tUser)
	if st.sent != 10 || st.received != 10 || !st.done {
		t.Errorf("initiator sent=%d received=%d done=%v", st.sent, st.received, st.done)
	}
	rst := responder.Body().(*tUser)
	if rst.received != 10 {
		t.Errorf("responder received=%d", rst.received)
	}
}

func TestConnProviderBridgesRealPipe(t *testing.T) {
	ca, cb := Pipe(0)
	rt := estelle.NewRuntime(estelle.WithStrict())
	provA, err := rt.AddSystem(SystemConnProviderDef(ca, false), "provA")
	if err != nil {
		t.Fatal(err)
	}
	provB, err := rt.AddSystem(SystemConnProviderDef(cb, true), "provB")
	if err != nil {
		t.Fatal(err)
	}
	initiator, err := rt.AddSystem(tUserDef("Initiator", 20, true), "init")
	if err != nil {
		t.Fatal(err)
	}
	responder, err := rt.AddSystem(tUserDef("Responder", 0, false), "resp")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(initiator.IP("T"), provA.IP("U")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(responder.IP("T"), provB.IP("U")); err != nil {
		t.Fatal(err)
	}
	s := estelle.NewScheduler(rt, estelle.MapPerSystem)
	if err := s.RunToQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := initiator.Body().(*tUser)
	if st.sent != 20 || st.received != 20 || !st.done {
		t.Errorf("initiator sent=%d received=%d done=%v", st.sent, st.received, st.done)
	}
	rst := responder.Body().(*tUser)
	if !rst.done {
		t.Errorf("responder not notified of disconnect: %+v", rst)
	}
	// Both ends are pipes: each provider took the receiver hook, so no
	// reader goroutine (and no rx channel for one) was ever started.
	for _, prov := range []*estelle.Instance{provA, provB} {
		b := prov.Def().External.(*connBody)
		if b.pipe == nil || b.rx != nil {
			t.Errorf("%s: pipe hooked = %v, reader started = %v", prov.Name(), b.pipe != nil, b.rx != nil)
		}
	}
}

// recorder is a T-service user that logs what its provider delivers.
type recorder struct {
	data []string
	dis  int
}

func recorderDef() *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name:   "Recorder",
		Attr:   estelle.SystemProcess,
		IPs:    []estelle.IPDef{{Name: "T", Channel: ServiceChannel, Role: "user"}},
		States: []string{"S"},
		Init:   func(ctx *estelle.Ctx) { ctx.SetBody(&recorder{}) },
		Trans: []estelle.Trans{
			{
				Name: "data", When: estelle.On("T", "TDatInd"),
				Action: func(ctx *estelle.Ctx) {
					r := ctx.Body().(*recorder)
					r.data = append(r.data, string(ctx.Msg.Bytes(0)))
				},
			},
			{
				Name: "dis", When: estelle.On("T", "TDisInd"),
				Action: func(ctx *estelle.Ctx) { ctx.Body().(*recorder).dis++ },
			},
		},
	}
}

// hookedProvider wires a recorder to a calling-side provider over conn,
// counting onGone calls, on a Stepper-driven runtime: with a pipe, every
// delivery happens on the goroutines the test controls.
func hookedProvider(t *testing.T, conn Conn, gone *int) (*estelle.Stepper, *recorder, *estelle.Instance) {
	t.Helper()
	rt := estelle.NewRuntime(estelle.WithStrict())
	def := *ConnProviderDef(conn, false, func() { *gone++ })
	def.Attr = estelle.SystemProcess
	prov, err := rt.AddSystem(&def, "prov")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rt.AddSystem(recorderDef(), "rec")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(rec.IP("T"), prov.IP("U")); err != nil {
		t.Fatal(err)
	}
	return estelle.NewStepper(rt), rec.Body().(*recorder), prov
}

func runIdle(t *testing.T, st *estelle.Stepper) {
	t.Helper()
	if _, err := st.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
}

func TestPipePushDeliversQueuedFirstInOrder(t *testing.T) {
	a, b := Pipe(0)
	defer b.Close()
	for i := 0; i < 5; i++ {
		if err := b.Send([]byte{'m', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	gone := 0
	st, rec, _ := hookedProvider(t, a, &gone)
	// The provider's first Step installs the hook and takes the queue.
	runIdle(t, st)
	for i := 5; i < 10; i++ {
		if err := b.Send([]byte{'m', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	runIdle(t, st)
	want := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"}
	if len(rec.data) != len(want) {
		t.Fatalf("delivered %q, want %q", rec.data, want)
	}
	for i := range want {
		if rec.data[i] != want[i] {
			t.Fatalf("delivered %q, want %q", rec.data, want)
		}
	}
	if rec.dis != 0 || gone != 0 {
		t.Fatalf("disconnect reported on a live pipe: TDisInd %d, onGone %d", rec.dis, gone)
	}
}

func TestPipePushReportsEOFOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(local, peer Conn)
	}{
		{"peer", func(_, peer Conn) { peer.Close() }},
		{"local", func(local, _ Conn) { local.Close() }},
		{"both", func(local, peer Conn) { peer.Close(); local.Close(); peer.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe(0)
			defer b.Close()
			gone := 0
			st, rec, _ := hookedProvider(t, a, &gone)
			runIdle(t, st)
			if err := b.Send([]byte("last")); err != nil {
				t.Fatal(err)
			}
			if tc.name == "peer" {
				// Data queued before the peer's close still arrives first.
				tc.close(a, b)
				runIdle(t, st)
				if len(rec.data) != 1 || rec.data[0] != "last" {
					t.Fatalf("delivered %q before EOF, want [last]", rec.data)
				}
			} else {
				runIdle(t, st)
				tc.close(a, b)
				runIdle(t, st)
			}
			// Later closes and passes change nothing.
			a.Close()
			b.Close()
			runIdle(t, st)
			if rec.dis != 1 || gone != 1 {
				t.Fatalf("TDisInd %d, onGone %d; want exactly 1 each", rec.dis, gone)
			}
		})
	}
}

// TestTPKTReportsEOFOnce covers the reader path: a conn that is not a pipe
// still reports its end through the same TDisInd and onGone, once.
func TestTPKTReportsEOFOnce(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := <-accepted
	var mu sync.Mutex
	gone := 0
	rt := estelle.NewRuntime(estelle.WithStrict())
	def := *ConnProviderDef(conn, false, func() { mu.Lock(); gone++; mu.Unlock() })
	def.Attr = estelle.SystemProcess
	prov, err := rt.AddSystem(&def, "prov")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rt.AddSystem(recorderDef(), "rec")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(rec.IP("T"), prov.IP("U")); err != nil {
		t.Fatal(err)
	}
	s := estelle.NewScheduler(rt, estelle.MapSingleUnit)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Send([]byte("last")); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		g := gone
		mu.Unlock()
		if g > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()
	if err := s.WaitQuiescent(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	r := rec.Body().(*recorder)
	if len(r.data) != 1 || r.data[0] != "last" || r.dis != 1 || gone != 1 {
		t.Fatalf("delivered %q, TDisInd %d, onGone %d; want [last], 1, 1", r.data, r.dis, gone)
	}
	if b := prov.Def().External.(*connBody); b.pipe != nil || b.rx == nil {
		t.Fatal("a TPKT conn must be read by the reader goroutine")
	}
}

func TestPipeSendAfterPeerCloseFails(t *testing.T) {
	a, b := Pipe(4)
	b.Close()
	// The queue has room; the closed peer must still refuse every send.
	for i := 0; i < 8; i++ {
		if err := a.Send([]byte("x")); err != ErrClosed {
			t.Fatalf("Send %d after peer close = %v, want ErrClosed", i, err)
		}
	}
	// Same with the receiver hook installed on the closing end.
	c, d := Pipe(4)
	gone := 0
	st, _, _ := hookedProvider(t, d, &gone)
	runIdle(t, st)
	d.Close()
	if err := c.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("Send after hooked peer close = %v, want ErrClosed", err)
	}
}

// burstUserDef sends n data units at once when connected and closes after
// n have come back; the responder side echoes.
func burstUserDef(name string, n int, initiate bool) *estelle.ModuleDef {
	def := tUserDef(name, n, initiate)
	def.Trans[2].Action = func(ctx *estelle.Ctx) {
		st := ctx.Body().(*tUser)
		for st.sent < st.n {
			ctx.Output("T", "TDatReq", []byte{byte(st.sent)})
			st.sent++
		}
	}
	def.Trans[3].Action = func(ctx *estelle.Ctx) {
		st := ctx.Body().(*tUser)
		st.received++
		if !st.initiate {
			ctx.Output("T", "TDatReq", ctx.Msg.Bytes(0))
		} else if st.received == st.n && !st.done {
			st.done = true
			ctx.Output("T", "TDisReq")
		}
	}
	return def
}

// TestPipePushFullBoundBothWays sends a burst of exactly the pipe's
// capacity each way through hooked ends: requests fill one direction, the
// echoed responses the other, and the exchange must still complete.
func TestPipePushFullBoundBothWays(t *testing.T) {
	const capacity = 8
	ca, cb := Pipe(capacity)
	rt := estelle.NewRuntime(estelle.WithStrict())
	provA, err := rt.AddSystem(SystemConnProviderDef(ca, false), "provA")
	if err != nil {
		t.Fatal(err)
	}
	provB, err := rt.AddSystem(SystemConnProviderDef(cb, true), "provB")
	if err != nil {
		t.Fatal(err)
	}
	initiator, err := rt.AddSystem(burstUserDef("Initiator", capacity, true), "init")
	if err != nil {
		t.Fatal(err)
	}
	responder, err := rt.AddSystem(burstUserDef("Responder", 0, false), "resp")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(initiator.IP("T"), provA.IP("U")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(responder.IP("T"), provB.IP("U")); err != nil {
		t.Fatal(err)
	}
	s := estelle.NewScheduler(rt, estelle.MapPerSystem)
	if err := s.RunToQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := initiator.Body().(*tUser)
	if st.sent != capacity || st.received != capacity || !st.done {
		t.Errorf("initiator sent=%d received=%d done=%v", st.sent, st.received, st.done)
	}
	if rst := responder.Body().(*tUser); rst.received != capacity || !rst.done {
		t.Errorf("responder received=%d done=%v", rst.received, rst.done)
	}
}

// recvAsync runs one Recv on its own goroutine.
func recvAsync(c Conn) <-chan error {
	got := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		got <- err
	}()
	return got
}

// TestPipeParkedRecvEOFOnClose parks a Recv on an empty pipe and closes
// either end: the close wakes it in-band with io.EOF.
func TestPipeParkedRecvEOFOnClose(t *testing.T) {
	for _, local := range []bool{true, false} {
		a, b := Pipe(4)
		got := recvAsync(a)
		time.Sleep(5 * time.Millisecond) // let the Recv park
		if local {
			a.Close()
		} else {
			b.Close()
		}
		select {
		case err := <-got:
			if err != io.EOF {
				t.Fatalf("parked Recv across close (local=%v) = %v, want EOF", local, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("parked Recv did not wake on close (local=%v)", local)
		}
	}
}

// TestPipeQueuedBeforeCloseArriveFirst closes a pipe holding a full queue
// (so the close's wake finds no room) from either end: every message
// queued before the close arrives, in order, then io.EOF, and EOF stays.
func TestPipeQueuedBeforeCloseArriveFirst(t *testing.T) {
	const capacity = 4
	for _, local := range []bool{true, false} {
		a, b := Pipe(capacity)
		for i := 0; i < capacity; i++ {
			if err := b.Send([]byte{byte('0' + i)}); err != nil {
				t.Fatal(err)
			}
		}
		if local {
			a.Close()
		} else {
			b.Close()
		}
		for i := 0; i < capacity; i++ {
			p, err := a.Recv()
			if err != nil || len(p) != 1 || p[0] != byte('0'+i) {
				t.Fatalf("Recv %d after close (local=%v) = %q, %v", i, local, p, err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := a.Recv(); err != io.EOF {
				t.Fatalf("Recv past the queue (local=%v) = %v, want EOF", local, err)
			}
		}
		if err := b.Send([]byte("x")); err != ErrClosed {
			t.Fatalf("Send after close = %v, want ErrClosed", err)
		}
	}
}

// TestPipeDeadlineLosesNothing: a Recv under a passed deadline returns
// ErrDeadline, and the message that lands afterwards comes from the next
// Recv — on the pipe itself and through DeadlineConn.
func TestPipeDeadlineLosesNothing(t *testing.T) {
	a, b := Pipe(4)
	defer b.Close()
	pc := a.(*pipeConn)
	pc.SetRecvDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	if _, err := pc.Recv(); err != ErrDeadline {
		t.Fatalf("Recv on a silent peer = %v, want ErrDeadline", err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("deadline fired after %v, before the 20ms it was set to", took)
	}
	if err := b.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if p, err := pc.Recv(); err != nil || string(p) != "late" {
		t.Fatalf("Recv after the timeout = %q, %v", p, err)
	}
	// A message already queued wins over a passed deadline.
	pc.SetRecvDeadline(time.Now().Add(-time.Second))
	if err := b.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	if p, err := pc.Recv(); err != nil || string(p) != "queued" {
		t.Fatalf("Recv under a passed deadline with a message queued = %q, %v", p, err)
	}
	if d := NewDeadlineConn(a); d.pipe == nil || d.msgs != nil {
		t.Fatal("a pipe must keep its own deadline, with no pump")
	}
}

// TestPipeDeadlineMovedForwardNeverFiresEarly moves the deadline forward on
// every call, as IsodeClient.Call does, for several deadline periods: no
// Recv times out, and the timer is armed once per firing, not per call.
func TestPipeDeadlineMovedForwardNeverFiresEarly(t *testing.T) {
	const (
		calls   = 120
		timeout = 25 * time.Millisecond
	)
	a, b := Pipe(4)
	defer a.Close()
	defer b.Close()
	go func() { // echo, slowly enough that the loop outlives many deadlines
		for {
			p, err := b.Recv()
			if err != nil {
				return
			}
			time.Sleep(time.Millisecond)
			if b.Send(p) != nil {
				return
			}
		}
	}()
	d := NewDeadlineConn(a)
	start := time.Now()
	for i := 0; i < calls; i++ {
		dl := time.Now().Add(timeout)
		d.SetRecvDeadline(dl)
		if err := d.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		_, err := d.Recv()
		switch {
		case err == ErrDeadline && time.Now().Before(dl):
			t.Fatalf("call %d: deadline fired before %v", i, dl)
		case err != nil && err != ErrDeadline:
			t.Fatalf("call %d: %v", i, err)
		}
		// ErrDeadline at or past dl is a host stall longer than the
		// timeout: the answer is late, not lost, and the next Recv takes it.
	}
	elapsed := time.Since(start)
	// One arm per timer firing (at most one per timeout), plus the first.
	if limit := int(elapsed/timeout) + 2; a.(*pipeConn).arms > limit {
		t.Fatalf("timer armed %d times in %d calls over %v, want <= %d",
			a.(*pipeConn).arms, calls, elapsed, limit)
	}
}

// countingConn is a net.Conn whose writes are counted and collected.
type countingConn struct {
	net.Conn
	writes int
	buf    bytes.Buffer
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// TestTPKTSendOneWrite pins TPKT framing at one Write per message, and
// Send at no allocation once its frame buffer has grown.
func TestTPKTSendOneWrite(t *testing.T) {
	nc := &countingConn{}
	c := NewTPKT(nc)
	msgs := [][]byte{[]byte("a"), bytes.Repeat([]byte("b"), 300), {}}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if nc.writes != len(msgs) {
		t.Fatalf("%d messages took %d writes, want one each", len(msgs), nc.writes)
	}
	var want []byte
	for _, m := range msgs {
		want = append(want, tpktVersion, 0, byte((len(m)+4)>>8), byte(len(m)+4))
		want = append(want, m...)
	}
	if !bytes.Equal(nc.buf.Bytes(), want) {
		t.Fatalf("wire bytes %x, want %x", nc.buf.Bytes(), want)
	}
	msg := bytes.Repeat([]byte("m"), 200)
	allocs := testing.AllocsPerRun(100, func() {
		nc.buf.Reset()
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TPKT Send allocates %.1f times, want 0", allocs)
	}
}
