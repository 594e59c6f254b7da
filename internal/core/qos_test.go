package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/obsv"
	"xmovie/internal/qos"
	"xmovie/internal/spa"
	"xmovie/internal/transport"
)

// TestTenantQuota verifies per-tenant session quotas on both stacks: a
// tenant at its quota is refused with ErrTenantQuota while the server has
// headroom, and closing one of its sessions re-opens admission.
func TestTenantQuota(t *testing.T) {
	for _, stack := range []StackKind{StackGenerated, StackHandcoded} {
		t.Run(stack.String(), func(t *testing.T) {
			env, _ := testEnv(t)
			srv, err := NewServer(ServerConfig{
				Stack: stack, Env: env,
				Limits: Limits{QoS: qos.Policy{
					Tenants: map[string]qos.Class{
						"capped": {Name: "viewer", MaxSessions: 2},
					},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			var clients []transport.Conn
			for i := 0; i < 2; i++ {
				cli, srvEnd := transport.Pipe(0)
				if err := srv.ServeConnFor(srvEnd, "capped"); err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				clients = append(clients, cli)
			}
			_, over := transport.Pipe(0)
			if err := srv.ServeConnFor(over, "capped"); !errors.Is(err, ErrTenantQuota) {
				t.Fatalf("3rd capped session = %v, want ErrTenantQuota", err)
			}
			// Another tenant is unaffected by the capped tenant's quota.
			free, freeSrv := transport.Pipe(0)
			if err := srv.ServeConnFor(freeSrv, "other"); err != nil {
				t.Fatalf("other tenant: %v", err)
			}
			defer free.Close()

			ts := srv.Observe().Tenants["capped"]
			if ts.Admitted != 2 || ts.Active != 2 || ts.RejectedQuota != 1 || ts.Class.Name != "viewer" {
				t.Fatalf("capped tenant stats = %+v", ts)
			}
			// Freeing a slot re-opens the tenant's admission.
			clients[0].Close()
			waitFor(t, 5*time.Second, func() bool {
				return srv.Observe().Tenants["capped"].Active == 1
			})
			again, againSrv := transport.Pipe(0)
			if err := srv.ServeConnFor(againSrv, "capped"); err != nil {
				t.Fatalf("readmission after release: %v", err)
			}
			again.Close()
			clients[1].Close()
		})
	}
}

// TestPriorityPreemption verifies admission priority at the MaxSessions
// bound on both stacks: when the server is full, a paying tenant's
// connection evicts an anonymous session instead of being refused, while
// an equal-priority connection still gets ErrServerFull.
func TestPriorityPreemption(t *testing.T) {
	for _, stack := range []StackKind{StackGenerated, StackHandcoded} {
		t.Run(stack.String(), func(t *testing.T) {
			env, _ := testEnv(t)
			var qosLog bytes.Buffer
			srv, err := NewServer(ServerConfig{
				Stack: stack, Env: env,
				Limits: Limits{
					MaxSessions: 2,
					QoS: qos.Policy{
						Default: qos.Class{Name: "anonymous"},
						Tenants: map[string]qos.Class{
							"gold": {Name: "paying", Priority: 10},
						},
					},
				},
				QoSLog: &qosLog,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			for i := 0; i < 2; i++ {
				cli, srvEnd := transport.Pipe(0)
				defer cli.Close()
				if err := srv.ServeConn(srvEnd); err != nil {
					t.Fatalf("anonymous session %d: %v", i, err)
				}
			}
			// Full server, equal priority: refused.
			_, flat := transport.Pipe(0)
			if err := srv.ServeConn(flat); !errors.Is(err, ErrServerFull) {
				t.Fatalf("anonymous over-limit = %v, want ErrServerFull", err)
			}
			// Full server, higher priority: admitted by eviction.
			goldCli, goldSrv := transport.Pipe(0)
			defer goldCli.Close()
			if err := srv.ServeConnFor(goldSrv, "gold"); err != nil {
				t.Fatalf("gold session while full = %v, want admission", err)
			}
			waitFor(t, 5*time.Second, func() bool {
				o := srv.Observe()
				return o.Tenants[""].Active == 1 && o.Tenants["gold"].Active == 1
			})
			o := srv.Observe()
			if g := o.Tenants["gold"]; g.Preemptions != 1 || g.Admitted != 1 {
				t.Fatalf("gold tenant stats = %+v", g)
			}
			if a := o.Tenants[""]; a.Preempted != 1 || a.Admitted != 2 {
				t.Fatalf("anonymous tenant stats = %+v", a)
			}
			if o.Sessions.Peak > 2 {
				t.Fatalf("peak %d exceeds MaxSessions 2", o.Sessions.Peak)
			}
			// An anonymous connection still finds nothing to evict: the
			// remaining sessions are its own priority or above.
			_, flat2 := transport.Pipe(0)
			if err := srv.ServeConn(flat2); !errors.Is(err, ErrServerFull) {
				t.Fatalf("anonymous after preemption = %v, want ErrServerFull", err)
			}
			for _, want := range []string{`"admit"`, `"reject-full"`, `"preempt"`} {
				if !strings.Contains(qosLog.String(), want) {
					t.Errorf("QoS log missing %s event:\n%s", want, qosLog.String())
				}
			}
		})
	}
}

// TestTenantBandwidthCap verifies the per-tenant stream-bandwidth cap on
// both stacks: a movie whose native pacing would finish almost instantly
// is paced down to the tenant's cap, visible in elapsed wall time and in
// the tenant's throttle counters.
func TestTenantBandwidthCap(t *testing.T) {
	const (
		frames    = 50
		frameSize = 4 << 10
		capBps    = 512 << 10 // 8ms per 4KiB frame => ~400ms floor
	)
	for _, stack := range []StackKind{StackGenerated, StackHandcoded} {
		t.Run(stack.String(), func(t *testing.T) {
			store := moviedb.NewMemStore()
			if err := store.Create(moviedb.Synthesize(moviedb.SynthConfig{
				// 250 fps (4ms period): fast enough that the 8ms/frame cap
				// dominates pacing, slow enough that ordinary timer jitter
				// cannot exceed a period on its own and book Late frames.
				Name: "burst", Frames: frames, FrameRate: 250, FrameSize: frameSize,
			})); err != nil {
				t.Fatal(err)
			}
			sim := spa.NewSimNet()
			t.Cleanup(sim.Close)
			srv, err := NewServer(ServerConfig{
				Addr: "127.0.0.1:0", Stack: stack,
				Env:      &mcam.ServerEnv{Store: store, Dialer: sim},
				TenantOf: func(transport.Conn) string { return "slow" },
				Limits: Limits{QoS: qos.Policy{
					Tenants: map[string]qos.Class{
						"slow": {Name: "metered", StreamBandwidth: capBps, Burst: frameSize},
					},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			client, err := Dial(srv.Addr(), ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			end, err := sim.Listen("slow/video", netsim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan mtp.RecvStats, 1)
			go func() {
				st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
				done <- st
			}()
			start := time.Now()
			resp, err := client.Call(&mcam.Request{Op: mcam.OpPlay, Movie: "burst",
				StreamAddr: "slow/video"})
			if err != nil || !resp.OK() {
				t.Fatalf("play = %+v, %v", resp, err)
			}
			select {
			case st := <-done:
				if st.Delivered != frames {
					t.Fatalf("delivered %d frames, want %d", st.Delivered, frames)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("capped stream did not finish")
			}
			elapsed := time.Since(start)
			// 50 frames × 4KiB at 512KiB/s is 400ms of debt minus one
			// burst; native pacing alone would finish in ~50ms.
			if elapsed < 300*time.Millisecond {
				t.Fatalf("stream finished in %v: bandwidth cap not enforced", elapsed)
			}
			waitFor(t, 5*time.Second, func() bool {
				return srv.Observe().Tenants["slow"].Streams.Streams == 1
			})
			ts := srv.Observe().Tenants["slow"]
			if ts.Throttle.Bytes != frames*frameSize {
				t.Errorf("throttle granted %d bytes, want %d", ts.Throttle.Bytes, frames*frameSize)
			}
			if ts.Throttle.Waits == 0 || ts.Throttle.Wait <= 0 {
				t.Errorf("throttle imposed no waits: %+v", ts.Throttle)
			}
			if ts.Streams.Frames != frames || ts.Streams.Dropped != 0 {
				t.Errorf("tenant stream totals = %+v", ts.Streams)
			}
			// The cap must not be misbooked as lateness (it shifts the
			// pacing epoch instead). If it were, essentially every frame
			// would be late (8ms wait vs 4ms period); a handful is ordinary
			// scheduler jitter, worse when the whole suite runs in parallel.
			if ts.Streams.Late > frames/4 {
				t.Errorf("cap waits booked as %d late frames", ts.Streams.Late)
			}
		})
	}
}

// TestTenantIsolation verifies that bandwidth caps are per class and
// isolate the classes, on both stacks: two classes ("gold" 512 KiB/s, "free"
// 256 KiB/s) each stream an unpaced movie over two concurrent sessions
// sharing their class's limiter, and each class's aggregate rate lands
// within ±10% of its own cap — neither starved by the other nor stealing
// past it — with nothing dropped.
func TestTenantIsolation(t *testing.T) {
	const (
		streamsPerClass = 2
		frames          = 48
		frameSize       = 8 << 10
		burst           = 8 << 10
		tolerance       = 0.10
	)
	caps := map[string]int64{"gold": 512 << 10, "free": 256 << 10}
	for _, stack := range []StackKind{StackGenerated, StackHandcoded} {
		t.Run(stack.String(), func(t *testing.T) {
			t.Parallel()
			store := moviedb.NewShardedStore(0)
			m := moviedb.SynthesizeLazy(moviedb.SynthConfig{Name: "flat", Frames: frames, FrameSize: frameSize})
			m.FrameRate = 0 // unpaced: the caps are the only pacing
			if err := store.Create(m); err != nil {
				t.Fatal(err)
			}
			sim := spa.NewSimNet()
			t.Cleanup(sim.Close)
			policy := qos.Policy{Tenants: map[string]qos.Class{}}
			for name, bps := range caps {
				policy.Tenants[name] = qos.Class{Name: name, StreamBandwidth: bps, Burst: burst}
			}
			srv, err := NewServer(ServerConfig{
				Stack: stack, Env: &mcam.ServerEnv{Store: store, Dialer: sim},
				Limits: Limits{QoS: policy},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// stream plays the movie once for tenant and returns the bytes
			// the receiver got.
			stream := func(tenant string, k int) (int64, error) {
				cliEnd, srvEnd := transport.Pipe(0)
				if err := srv.ServeConnFor(srvEnd, tenant); err != nil {
					cliEnd.Close()
					return 0, err
				}
				client, err := NewClientConn(cliEnd, ClientConfig{Stack: stack})
				if err != nil {
					return 0, err
				}
				defer client.Close()
				addr := fmt.Sprintf("%s-%d/video", tenant, k)
				end, err := sim.Listen(addr, netsim.Config{})
				if err != nil {
					return 0, err
				}
				done := make(chan mtp.RecvStats, 1)
				go func() {
					st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
					done <- st
				}()
				resp, err := client.Call(&mcam.Request{Op: mcam.OpPlay, Movie: "flat", StreamAddr: addr})
				if err != nil || !resp.OK() {
					return 0, fmt.Errorf("play = %+v, %v", resp, err)
				}
				select {
				case st := <-done:
					if st.Delivered != frames {
						return 0, fmt.Errorf("delivered %d/%d frames", st.Delivered, frames)
					}
					return st.Bytes, nil
				case <-time.After(30 * time.Second):
					return 0, fmt.Errorf("capped stream did not finish")
				}
			}

			// Both classes stream at once; a class's rate is its bytes over
			// the time from the common start to its last delivery.
			type class struct {
				bytes   int64
				elapsed time.Duration
			}
			got := map[string]*class{"gold": {}, "free": {}}
			var mu sync.Mutex
			var wg sync.WaitGroup
			start := time.Now()
			for tenant := range caps {
				for k := 0; k < streamsPerClass; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						n, err := stream(tenant, k)
						if err != nil {
							t.Errorf("%s stream %d: %v", tenant, k, err)
							return
						}
						mu.Lock()
						c := got[tenant]
						c.bytes += n
						c.elapsed = max(c.elapsed, time.Since(start))
						mu.Unlock()
					}()
				}
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			waitFor(t, 5*time.Second, func() bool {
				o := srv.Observe()
				return o.Tenants["gold"].Streams.Streams == streamsPerClass &&
					o.Tenants["free"].Streams.Streams == streamsPerClass
			})
			o := srv.Observe()
			for tenant, bps := range caps {
				rate := float64(got[tenant].bytes) / got[tenant].elapsed.Seconds()
				lo, hi := float64(bps)*(1-tolerance), float64(bps)*(1+tolerance)
				if rate < lo || rate > hi {
					t.Errorf("%s throughput %.0f B/s outside ±%.0f%% of its cap %d B/s",
						tenant, rate, tolerance*100, bps)
				}
				ts := o.Tenants[tenant]
				t.Logf("%s: %.0f B/s, %+.1f%% of its cap; %d throttle waits",
					tenant, rate, (rate/float64(bps)-1)*100, ts.Throttle.Waits)
				if ts.Throttle.Waits == 0 {
					t.Errorf("%s cap imposed no waits: %+v", tenant, ts.Throttle)
				}
				if ts.Throttle.Bytes != streamsPerClass*frames*frameSize {
					t.Errorf("%s throttle granted %d bytes, want %d",
						tenant, ts.Throttle.Bytes, streamsPerClass*frames*frameSize)
				}
				if ts.Streams.Dropped != 0 {
					t.Errorf("%s dropped %d frames", tenant, ts.Streams.Dropped)
				}
			}
		})
	}
}

// TestMetricsEndpointScrape starts a server with a metrics listener and
// scrapes /metrics over HTTP, asserting the Prometheus text contract:
// content type, session/stream/cache families, and per-tenant samples.
func TestMetricsEndpointScrape(t *testing.T) {
	env, _ := testEnv(t)
	srv, err := NewServer(ServerConfig{
		Stack: StackHandcoded, Env: env,
		MetricsAddr: "127.0.0.1:0",
		Limits: Limits{QoS: qos.Policy{
			Tenants: map[string]qos.Class{
				"gold": {Name: "paying", Priority: 10},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.MetricsAddr() == "" {
		t.Fatal("no metrics address")
	}

	cli, srvEnd := transport.Pipe(0)
	defer cli.Close()
	if err := srv.ServeConnFor(srvEnd, "gold"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obsv.ContentType {
		t.Errorf("content type = %q, want %q", ct, obsv.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE xmovie_sessions_active gauge",
		"# TYPE xmovie_sessions_accepted_total counter",
		"xmovie_sessions_accepted_total 1",
		"xmovie_sessions_active 1",
		"# TYPE xmovie_stream_frames_total counter",
		"xmovie_stream_bytes_total 0",
		"xmovie_cache_hits_total 0",
		"xmovie_cache_capacity_bytes 0",
		`xmovie_tenant_sessions_active{tenant="gold"} 1`,
		`xmovie_tenant_sessions_admitted_total{tenant="gold"} 1`,
		`xmovie_tenant_sessions_rejected_total{tenant="gold",reason="quota"} 0`,
		`xmovie_tenant_sessions_rejected_total{tenant="gold",reason="full"} 0`,
		`xmovie_tenant_throttle_bytes_total{tenant="gold"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Every declared family appears in the scrape, HELP and TYPE included.
	for _, name := range MetricNames() {
		if !strings.Contains(text, "# HELP "+name+" ") ||
			!strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("scrape missing HELP/TYPE for %s", name)
		}
	}
}
