package xmovie_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmovie"
	"xmovie/internal/chaos"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
)

// stacks enumerates both control stacks for resilience subtests: failure
// semantics must be identical on the generated and hand-coded paths.
var stacks = []struct {
	name  string
	stack xmovie.StackKind
}{
	{"generated", xmovie.StackGenerated},
	{"handcoded", xmovie.StackHandcoded},
}

// TestDialTimeoutOnSilentPeer proves a dead server costs the configured
// timeout, not forever: association setup against a peer that never answers
// fails with ErrTimeout.
func TestDialTimeoutOnSilentPeer(t *testing.T) {
	for _, s := range stacks {
		t.Run(s.name, func(t *testing.T) {
			c1, c2 := xmovie.Pipe()
			defer c2.Close()
			start := time.Now()
			_, err := xmovie.NewClientConn(c1, xmovie.ClientConfig{
				Stack: s.stack, CallTimeout: 300 * time.Millisecond,
			})
			if !errors.Is(err, xmovie.ErrTimeout) {
				t.Fatalf("dial against silent peer = %v, want ErrTimeout", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("timeout took %v", d)
			}
		})
	}
}

// TestAwaitEventTerminalAfterSever proves the satellite fix: a severed
// association makes AwaitEvent return ErrClosed immediately instead of
// spinning until its timeout.
func TestAwaitEventTerminalAfterSever(t *testing.T) {
	for _, s := range stacks {
		t.Run(s.name, func(t *testing.T) {
			srv, _ := newFacadeServer(t, s.stack)
			client, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{Stack: s.stack})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			go func() {
				time.Sleep(100 * time.Millisecond)
				srv.Close()
			}()
			start := time.Now()
			_, err = client.AwaitEvent(30 * time.Second)
			if !errors.Is(err, xmovie.ErrClosed) {
				t.Fatalf("AwaitEvent after sever = %v, want ErrClosed", err)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("AwaitEvent burned %v before noticing the sever", d)
			}
		})
	}
}

// sendCounter is a Conn that counts the messages sent through it.
type sendCounter struct {
	xmovie.Conn
	sends atomic.Int64
}

func (c *sendCounter) Send(p []byte) error {
	c.sends.Add(1)
	return c.Conn.Send(p)
}

// TestClientCloseIdempotent closes a client from two goroutines at once and
// then once more, on each stack: only the first Close releases, and every
// later one sends nothing and returns ErrClosed.
func TestClientCloseIdempotent(t *testing.T) {
	for _, s := range stacks {
		t.Run(s.name, func(t *testing.T) {
			srv, _ := newFacadeServer(t, s.stack)
			serverEnd, clientEnd := xmovie.Pipe()
			if err := srv.ServeConn(serverEnd); err != nil {
				t.Fatal(err)
			}
			conn := &sendCounter{Conn: clientEnd}
			client, err := xmovie.NewClientConn(conn, xmovie.ClientConfig{Stack: s.stack})
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, 2)
			for range 2 {
				go func() { errs <- client.Close() }()
			}
			var released int
			for range 2 {
				switch err := <-errs; {
				case err == nil:
					released++
				case !errors.Is(err, xmovie.ErrClosed):
					t.Fatalf("concurrent Close = %v", err)
				}
			}
			if released != 1 {
				t.Fatalf("%d of two concurrent Closes released", released)
			}
			sent := conn.sends.Load()
			if err := client.Close(); !errors.Is(err, xmovie.ErrClosed) {
				t.Fatalf("third Close = %v, want ErrClosed", err)
			}
			if n := conn.sends.Load(); n != sent {
				t.Fatalf("third Close sent %d messages", n-sent)
			}
		})
	}
}

// TestBusyCarriesRetryAfter proves graceful load shedding: a connection
// beyond MaxSessions still gets an association, and every request on it is
// answered StatusBusy with the server's retry-after hint.
func TestBusyCarriesRetryAfter(t *testing.T) {
	for _, s := range stacks {
		t.Run(s.name, func(t *testing.T) {
			store := xmovie.NewMemStore()
			srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
				Addr:   "127.0.0.1:0",
				Stack:  s.stack,
				Env:    &xmovie.ServerEnv{Store: store},
				Limits: xmovie.Limits{MaxSessions: 1, BusyRetryAfter: 250 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			holder, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{Stack: s.stack})
			if err != nil {
				t.Fatal(err)
			}
			defer holder.Close()

			shed, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{Stack: s.stack})
			if err != nil {
				t.Fatalf("over-limit dial should still get a (busy) association: %v", err)
			}
			defer shed.Close()
			resp, err := shed.Call(&xmovie.Request{Op: xmovie.OpListMovies})
			if err != nil {
				t.Fatalf("call on busy association: %v", err)
			}
			if resp.Status != xmovie.StatusBusy || resp.RetryAfterMs != 250 {
				t.Fatalf("busy response = %s retryAfter %dms, want busy/250ms (%+v)",
					resp.Status, resp.RetryAfterMs, resp)
			}
			if st := srv.Observe().Sessions; st.Busy != 1 {
				t.Fatalf("server busy counter = %d, want 1", st.Busy)
			}
		})
	}
}

// frameLog collects delivered frames by sequence number, tracking the
// contiguous prefix a resume restarts from.
type frameLog struct {
	mu     sync.Mutex
	frames map[uint32][]byte
	dups   int
}

func newFrameLog() *frameLog { return &frameLog{frames: make(map[uint32][]byte)} }

func (l *frameLog) deliver(f mtp.Frame) {
	l.mu.Lock()
	if _, ok := l.frames[f.Seq]; ok {
		l.dups++
	} else {
		l.frames[f.Seq] = append([]byte(nil), f.Payload...)
	}
	l.mu.Unlock()
}

// contiguous returns the first sequence number not yet delivered.
func (l *frameLog) contiguous() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for {
		if _, ok := l.frames[uint32(n)]; !ok {
			return n
		}
		n++
	}
}

func (l *frameLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

// synthFrames materializes the expected frame bytes of a synthetic movie.
func synthFrames(t *testing.T, name string, frames, rate int) [][]byte {
	t.Helper()
	src := xmovie.SynthMovie(name, frames, rate).Open()
	defer src.Close()
	out := make([][]byte, 0, frames)
	for i := 0; i < frames; i++ {
		f, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), f...))
	}
	return out
}

// TestReconnectResumesAfterServerRestart is the client-side recovery story
// end to end: a server dies mid-stream with a herd of other ReconnectClients
// associated; after the restart every herd member's next call reconnects
// inside the backoff envelope, and the streaming client redials,
// re-selects, and resumes the play from the receiver's contiguous progress;
// the delivered frame sequence is byte-identical to an uninterrupted run,
// with zero duplicates, and nothing leaks a goroutine.
func TestReconnectResumesAfterServerRestart(t *testing.T) {
	const (
		totalFrames, rate = 300, 100
		herdSize          = 64
		herdBackoffBase   = 25 * time.Millisecond
		herdBackoffMax    = 2 * time.Second
	)
	checkNoLeakedGoroutines(t)
	store := xmovie.NewMemStore()
	if err := store.Create(xmovie.SynthMovie("film", totalFrames, rate)); err != nil {
		t.Fatal(err)
	}
	sim := xmovie.NewSimNet()
	defer sim.Close()
	serve := func() *xmovie.Server {
		srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
			Addr: "127.0.0.1:0",
			Env:  &xmovie.ServerEnv{Store: store, Dialer: sim},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := serve()

	var addrMu sync.Mutex
	addr := srv.Addr()
	dial := func() (*xmovie.Client, error) {
		addrMu.Lock()
		a := addr
		addrMu.Unlock()
		return xmovie.Dial(a, xmovie.ClientConfig{CallTimeout: 2 * time.Second})
	}
	rc, err := xmovie.NewReconnectClient(xmovie.ReconnectConfig{
		Dial:        dial,
		BackoffBase: 20 * time.Millisecond,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, _, err := rc.Select("film"); err != nil {
		t.Fatal(err)
	}

	// The herd: associated (with a movie selected) when the server dies.
	var maxAttempt atomic.Int64
	herd := make([]*xmovie.ReconnectClient, herdSize)
	for i := range herd {
		member, err := xmovie.NewReconnectClient(xmovie.ReconnectConfig{
			Dial:        dial,
			BackoffBase: herdBackoffBase,
			BackoffMax:  herdBackoffMax,
			MaxAttempts: 12,
			Seed:        int64(i + 1),
			OnRedial: func(attempt int, _ time.Duration, _ error) {
				for old := maxAttempt.Load(); int64(attempt) > old; old = maxAttempt.Load() {
					if maxAttempt.CompareAndSwap(old, int64(attempt)) {
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatalf("herd member %d: %v", i, err)
		}
		defer member.Close()
		if _, _, err := member.Select("film"); err != nil {
			t.Fatalf("herd member %d select: %v", i, err)
		}
		herd[i] = member
	}
	end, err := sim.Listen("rc/v", netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	log := newFrameLog()
	recv := func() chan mtp.RecvStats {
		done := make(chan mtp.RecvStats, 1)
		go func() {
			st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, log.deliver)
			done <- st
		}()
		return done
	}

	done := recv()
	if _, err := rc.Play("film", "rc/v"); err != nil {
		t.Fatal(err)
	}
	// Kill the server mid-stream, once a healthy chunk has been delivered.
	for log.count() < 80 {
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	<-done // the dying server terminates the stream on the wire

	delivered := log.contiguous()
	if delivered >= totalFrames {
		t.Fatalf("stream finished (%d frames) before the kill; nothing to resume", delivered)
	}

	// The aborted stream's trailing EOS markers (the sender repeats them to
	// survive loss) are still queued on the endpoint; drain them so the
	// resumed stream's receiver cannot mistake them for its own termination.
	time.Sleep(50 * time.Millisecond)
	for {
		if _, ok := end.TryRecv(); !ok {
			break
		}
	}

	// Restart and resume from the receiver's contiguous progress.
	srv = serve()
	defer srv.Close()
	addrMu.Lock()
	addr = srv.Addr()
	addrMu.Unlock()

	// The stampede: every herd member finds its association dead on its
	// next call and redials, all at once.
	restartAt := time.Now()
	took := make([]time.Duration, herdSize)
	var wg sync.WaitGroup
	for i, member := range herd {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := member.List(); err != nil {
				t.Errorf("herd member %d did not reconnect: %v", i, err)
			}
			took[i] = time.Since(restartAt)
		}()
	}
	wg.Wait()
	// The envelope: the cumulative backoff of the deepest attempt any member
	// needed (jitter only shortens waits), plus a second and 2 ms per client
	// for the all-at-once storm to find a CPU.
	envelope := time.Second + herdSize*2*time.Millisecond
	for a := 1; a <= int(maxAttempt.Load()); a++ {
		envelope += min(herdBackoffBase<<(a-1), herdBackoffMax)
	}
	for i, d := range took {
		if d > envelope {
			t.Errorf("herd member %d reconnected after %v, outside the backoff envelope %v", i, d, envelope)
		}
	}
	t.Logf("herd of %d reconnected: slowest %v, deepest redial attempt %d, envelope %v",
		herdSize, slices.Max(took).Round(time.Millisecond), maxAttempt.Load(), envelope)
	if st := srv.Observe().Sessions; st.Rejected != 0 {
		t.Errorf("restarted server rejected %d connections", st.Rejected)
	}

	done = recv()
	if _, err := rc.ResumeLastPlay(delivered); err != nil {
		t.Fatal(err)
	}
	<-done

	if st := rc.Stats(); st.Redials < 1 || st.Resumes != 1 {
		t.Fatalf("reconnect stats %+v, want >=1 redial and 1 resume", st)
	}
	expected := synthFrames(t, "film", totalFrames, rate)
	if log.dups > 0 {
		t.Fatalf("%d duplicate frames delivered across the resume", log.dups)
	}
	if n := log.count(); n != totalFrames {
		t.Fatalf("delivered %d distinct frames, want %d", n, totalFrames)
	}
	for i, want := range expected {
		if got := log.frames[uint32(i)]; !bytes.Equal(got, want) {
			t.Fatalf("frame %d differs after resume (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// TestReconnectHonorsBusy proves a shed client waits out the retry-after
// hint and wins a slot once one frees up, instead of hammering the server.
func TestReconnectHonorsBusy(t *testing.T) {
	store := xmovie.NewMemStore()
	if err := store.Create(xmovie.SynthMovie("film", 10, 25)); err != nil {
		t.Fatal(err)
	}
	srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
		Addr:   "127.0.0.1:0",
		Env:    &xmovie.ServerEnv{Store: store},
		Limits: xmovie.Limits{MaxSessions: 1, BusyRetryAfter: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	holder, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(300 * time.Millisecond)
		holder.Close() // frees the only session slot
	}()

	rc, err := xmovie.NewReconnectClient(xmovie.ReconnectConfig{
		Dial: func() (*xmovie.Client, error) {
			return xmovie.Dial(srv.Addr(), xmovie.ClientConfig{CallTimeout: 2 * time.Second})
		},
		BackoffBase: 20 * time.Millisecond,
		MaxAttempts: 20,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, _, err := rc.Select("film"); err != nil {
		t.Fatalf("Select never won a slot: %v", err)
	}
	if st := rc.Stats(); st.BusyWaits < 1 {
		t.Fatalf("reconnect stats %+v, want at least one busy wait", st)
	}
}

// dialLog is a ReconnectConfig.Dial that records when each dial starts.
type dialLog struct {
	mu   sync.Mutex
	addr string
	cfg  xmovie.ClientConfig
	at   []time.Time
}

func (d *dialLog) setAddr(addr string) {
	d.mu.Lock()
	d.addr = addr
	d.mu.Unlock()
}

func (d *dialLog) dial() (*xmovie.Client, error) {
	d.mu.Lock()
	d.at = append(d.at, time.Now())
	addr := d.addr
	d.mu.Unlock()
	return xmovie.Dial(addr, d.cfg)
}

func (d *dialLog) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.at)
}

// TestReconnectReselectRefused restarts the server without the selected
// movie: the next operation redials once, and the refused re-select is
// returned at once as the terminal answer it is, not retried.
func TestReconnectReselectRefused(t *testing.T) {
	store := xmovie.NewMemStore()
	if err := store.Create(xmovie.SynthMovie("film", 10, 25)); err != nil {
		t.Fatal(err)
	}
	serve := func() *xmovie.Server {
		srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
			Addr: "127.0.0.1:0", Env: &xmovie.ServerEnv{Store: store},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := serve()
	d := &dialLog{addr: srv.Addr(), cfg: xmovie.ClientConfig{CallTimeout: 2 * time.Second}}
	rc, err := xmovie.NewReconnectClient(xmovie.ReconnectConfig{
		Dial: d.dial, BackoffBase: 5 * time.Millisecond, MaxAttempts: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, _, err := rc.Select("film"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := store.Delete("film"); err != nil {
		t.Fatal(err)
	}
	srv = serve()
	defer srv.Close()
	d.setAddr(srv.Addr())

	before := d.count()
	_, err = rc.List()
	if err == nil || !strings.Contains(err.Error(), `re-select "film"`) {
		t.Fatalf("List after restart = %v, want the re-select refusal", err)
	}
	var se *xmovie.StatusError
	if !errors.As(err, &se) || se.Response.Status != xmovie.StatusNoSuchMovie {
		t.Fatalf("List error %v carries no StatusNoSuchMovie", err)
	}
	if n := d.count() - before; n != 1 {
		t.Fatalf("List dialed %d times, want 1", n)
	}
}

// TestReconnectReselectBusy severs the association while another client
// takes the server's only session slot: the re-select on each redial is
// answered StatusBusy, and the next dial waits out the retry-after hint.
func TestReconnectReselectBusy(t *testing.T) {
	const hint = 150 * time.Millisecond
	store := xmovie.NewMemStore()
	if err := store.Create(xmovie.SynthMovie("film", 10, 25)); err != nil {
		t.Fatal(err)
	}
	srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
		Addr:   "127.0.0.1:0",
		Env:    &xmovie.ServerEnv{Store: store},
		Limits: xmovie.Limits{MaxSessions: 1, BusyRetryAfter: hint},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := &dialLog{addr: srv.Addr(), cfg: xmovie.ClientConfig{CallTimeout: 2 * time.Second}}
	rc, err := xmovie.NewReconnectClient(xmovie.ReconnectConfig{
		Dial: d.dial, BackoffBase: 5 * time.Millisecond, BackoffMax: 10 * time.Millisecond,
		MaxAttempts: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, _, err := rc.Select("film"); err != nil {
		t.Fatal(err)
	}

	// Sever rc's association and hand its slot to a holder.
	if err := rc.Client().Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Observe().Sessions.Active != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the severed session was never reclaimed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	holder, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.List(); err != nil {
		t.Fatalf("holder did not get the slot: %v", err)
	}
	go func() {
		time.Sleep(3 * hint)
		holder.Close()
	}()

	first := d.count() // the first redial is answered busy
	if _, err := rc.List(); err != nil {
		t.Fatalf("List never won the slot back: %v", err)
	}
	if st := rc.Stats(); st.BusyWaits < 1 {
		t.Fatalf("reconnect stats %+v, want at least one busy wait", st)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.at) < first+2 {
		t.Fatalf("%d redials, want a busy one and the one after it", len(d.at)-first)
	}
	for i := first + 1; i < len(d.at); i++ {
		if gap := d.at[i].Sub(d.at[i-1]); gap < hint {
			t.Errorf("redial %d came %v after the busy one, before the %v hint", i-first, gap, hint)
		}
	}
}

// TestReconnectBoundsDials makes every call time out: one operation dials
// at most MaxAttempts times, and OnRedial reports each redial's backoff
// before it.
func TestReconnectBoundsDials(t *testing.T) {
	const maxAttempts = 5
	faulty := chaos.NewFaultStore(xmovie.NewMemStore(), chaos.FaultConfig{})
	srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
		Addr: "127.0.0.1:0", Env: &xmovie.ServerEnv{Store: faulty},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var mu sync.Mutex
	var log []string
	rc, err := xmovie.NewReconnectClient(xmovie.ReconnectConfig{
		Dial: func() (*xmovie.Client, error) {
			mu.Lock()
			log = append(log, "dial")
			mu.Unlock()
			return xmovie.Dial(srv.Addr(), xmovie.ClientConfig{CallTimeout: 100 * time.Millisecond})
		},
		BackoffBase: 5 * time.Millisecond,
		MaxAttempts: maxAttempts,
		Seed:        9,
		OnRedial: func(int, time.Duration, error) {
			mu.Lock()
			log = append(log, "backoff")
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	faulty.SetConfig(chaos.FaultConfig{Seed: 1, SlowProb: 1, SlowDelay: 250 * time.Millisecond})

	mu.Lock()
	log = log[:0]
	mu.Unlock()
	if _, err := rc.List(); !errors.Is(err, xmovie.ErrTimeout) {
		t.Fatalf("List = %v, want a timeout", err)
	}
	mu.Lock()
	defer mu.Unlock()
	dials := 0
	for i, ev := range log {
		if ev != "dial" {
			continue
		}
		dials++
		if i == 0 || log[i-1] != "backoff" {
			t.Errorf("dial %d not preceded by OnRedial: %v", dials, log)
		}
	}
	if dials == 0 || dials > maxAttempts {
		t.Fatalf("one List dialed %d times, want 1..%d: %v", dials, maxAttempts, log)
	}
}

// TestDrainConvergesUnderChaos drives streams over a store injecting slow
// reads, then drains the server mid-flight: bounded reads keep every sender
// unwedgeable, so Drain converges promptly and no goroutines are left
// behind.
func TestDrainConvergesUnderChaos(t *testing.T) {
	checkNoLeakedGoroutines(t)

	store := xmovie.NewMemStore()
	if err := store.Create(xmovie.SynthMovie("film", 5000, 100)); err != nil {
		t.Fatal(err)
	}
	faulty := chaos.NewFaultStore(store, chaos.FaultConfig{
		Seed: 11, SlowProb: 0.4, SlowDelay: 30 * time.Millisecond,
	})
	sim := xmovie.NewSimNet()
	srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
		Env: &xmovie.ServerEnv{Store: faulty, Dialer: sim, StreamReadTimeout: 15 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	var clients []*xmovie.Client
	for i := 0; i < 3; i++ {
		serverEnd, clientEnd := xmovie.Pipe()
		if err := srv.ServeConn(serverEnd); err != nil {
			t.Fatal(err)
		}
		c, err := xmovie.NewClientConn(clientEnd, xmovie.ClientConfig{CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		path := fmt.Sprintf("drain/%d", i)
		if _, err := sim.Listen(path, netsim.Config{}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Play("film", path); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond) // streams limping through injected slowness

	start := time.Now()
	if err := srv.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("drain took %v under chaos", d)
	}
	for _, c := range clients {
		_ = c.Close()
	}
	sim.Close()
}

// checkNoLeakedGoroutines fails t unless, once t and its deferred closes
// have finished, the goroutine count falls back to what it is now: every
// stream, session, pump and bounded-read worker must unwind. Injected
// stalls and backoff sleeps bound how long that can take.
func checkNoLeakedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	})
}

// TestStreamFaultShapes plays one paced stream per fault on both stacks and
// asserts the degradation contract of each: whatever the fault, the stream
// terminates, and the receiver's accounting shows the fault's own shape.
//
//   - slow-disk: a FaultStore stalls ~15% of reads for 50 ms under a 20 ms
//     StreamReadTimeout; the stalls become skipped frames (loss), never a
//     wedged sender.
//   - partition-heal: the link partitions for 250 ms mid-flight and heals;
//     the outage is booked as loss and traffic flows again after the heal.
//   - latency-spike: the link gains 60 ms of latency for 300 ms; delivery
//     stalls visibly but latency alone loses nothing.
func TestStreamFaultShapes(t *testing.T) {
	const (
		frames, rate = 240, 120
		// warmFrames are delivered before a link fault is injected.
		warmFrames = 50
		spikeExtra = 60 * time.Millisecond
	)
	cases := []struct {
		name string
		// slowDisk serves the movie through a stalling store under a
		// bounded StreamReadTimeout.
		slowDisk bool
		// fault, when non-nil, is applied to the stream's link once
		// warmFrames have arrived.
		fault func(*netsim.Link)
		// check judges the receiver's stats, the delivery count when the
		// fault was injected and the longest gap between two deliveries.
		check func(t *testing.T, st mtp.RecvStats, atFault int64, maxGap time.Duration)
	}{
		{
			name:     "slow-disk",
			slowDisk: true,
			check: func(t *testing.T, st mtp.RecvStats, _ int64, _ time.Duration) {
				if st.Lost == 0 {
					t.Error("no frames skipped — the injected stalls never bit")
				}
				if st.Delivered == 0 {
					t.Error("nothing delivered — the stream wedged instead of degrading")
				}
				if st.Delivered+st.Lost != frames {
					t.Errorf("accounting: delivered %d + lost %d != %d", st.Delivered, st.Lost, frames)
				}
			},
		},
		{
			name:  "partition-heal",
			fault: func(l *netsim.Link) { l.Partition(250 * time.Millisecond) }, // auto-heals
			check: func(t *testing.T, st mtp.RecvStats, atFault int64, _ time.Duration) {
				if st.Lost == 0 {
					t.Error("partition cost no frames — it never bit")
				}
				if st.Delivered+st.Lost < frames {
					t.Errorf("accounting hole: delivered %d + lost %d < %d", st.Delivered, st.Lost, frames)
				}
				if int64(st.Delivered) <= atFault {
					t.Errorf("no traffic after heal (delivered %d, %d before the partition)", st.Delivered, atFault)
				}
			},
		},
		{
			name:  "latency-spike",
			fault: func(l *netsim.Link) { l.Spike(spikeExtra, 300*time.Millisecond) }, // auto-reverts
			check: func(t *testing.T, st mtp.RecvStats, _ int64, maxGap time.Duration) {
				if st.Lost != 0 || st.Delivered != frames {
					t.Errorf("delivered %d, lost %d — latency alone must lose nothing (want %d/0)", st.Delivered, st.Lost, frames)
				}
				if maxGap < spikeExtra*2/3 {
					t.Errorf("max inter-arrival gap %v — the spike never bit", maxGap)
				}
			},
		},
	}
	for _, tc := range cases {
		for _, s := range stacks {
			t.Run(tc.name+"/"+s.name, func(t *testing.T) {
				t.Parallel()
				var store xmovie.Store = xmovie.NewMemStore()
				if err := store.Create(xmovie.SynthMovie("film", frames, rate)); err != nil {
					t.Fatal(err)
				}
				var readTimeout time.Duration
				if tc.slowDisk {
					store = chaos.NewFaultStore(store, chaos.FaultConfig{
						Seed: 17, SlowProb: 0.15, SlowDelay: 50 * time.Millisecond,
					})
					readTimeout = 20 * time.Millisecond
				}
				sim := xmovie.NewSimNet()
				defer sim.Close()
				srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
					Addr:  "127.0.0.1:0",
					Stack: s.stack,
					Env:   &xmovie.ServerEnv{Store: store, Dialer: sim, StreamReadTimeout: readTimeout},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()

				end, err := sim.Listen("fault/v", netsim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				// The deliver callback runs on the receiver's goroutine;
				// maxGap is read after the stats arrive on done, which
				// orders the two.
				var delivered atomic.Int64
				var last time.Time
				var maxGap time.Duration
				done := make(chan mtp.RecvStats, 1)
				go func() {
					st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, func(mtp.Frame) {
						now := time.Now()
						if !last.IsZero() && now.Sub(last) > maxGap {
							maxGap = now.Sub(last)
						}
						last = now
						delivered.Add(1)
					})
					done <- st
				}()

				client, err := xmovie.Dial(srv.Addr(), xmovie.ClientConfig{Stack: s.stack})
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				if _, err := client.Play("film", "fault/v"); err != nil {
					t.Fatal(err)
				}
				var atFault int64
				if tc.fault != nil {
					for delivered.Load() < warmFrames {
						time.Sleep(2 * time.Millisecond)
					}
					link, ok := sim.Link("fault/v")
					if !ok {
						t.Fatal("no link for fault/v")
					}
					atFault = delivered.Load()
					tc.fault(link)
				}

				select {
				case st := <-done:
					t.Logf("delivered %d, lost %d of %d; longest gap %v",
						st.Delivered, st.Lost, frames, maxGap.Round(time.Millisecond))
					tc.check(t, st, atFault, maxGap)
				case <-time.After(30 * time.Second):
					t.Fatal("stream never terminated")
				}
			})
		}
	}
}
