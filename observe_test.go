package xmovie_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"xmovie"
)

// TestFacadeObserve exercises the unified snapshot through the public API:
// per-tenant admission counters, the deprecated Stats/StreamStats wrappers
// staying consistent with Observe, and the /metrics endpoint.
func TestFacadeObserve(t *testing.T) {
	srv, err := xmovie.ListenAndServe(xmovie.ServerConfig{
		Stack:       xmovie.StackHandcoded,
		MetricsAddr: "127.0.0.1:0",
		Limits: xmovie.Limits{QoS: xmovie.QoSPolicy{
			Tenants: map[string]xmovie.QoSClass{
				"gold": {Name: "paying", Priority: 5, MaxSessions: 8},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cliEnd, srvEnd := xmovie.Pipe()
	defer cliEnd.Close()
	if err := srv.ServeConnFor(srvEnd, "gold"); err != nil {
		t.Fatal(err)
	}

	o := srv.Observe()
	if o.Sessions.Accepted != 1 || o.Sessions.Active != 1 {
		t.Fatalf("sessions = %+v", o.Sessions)
	}
	g, ok := o.Tenants["gold"]
	if !ok || g.Admitted != 1 || g.Active != 1 || g.Class.Name != "paying" {
		t.Fatalf("gold tenant = %+v (present %v)", g, ok)
	}
	// The zero-copy delivery and timer-wheel counters are process-wide;
	// other tests may already have moved them, so only monotonicity is
	// assertable here.
	if o.Delivery.VecSends < 0 || o.TimerWheel.Armed < o.TimerWheel.Fired+o.TimerWheel.Canceled {
		t.Errorf("implausible delivery/timewheel counters: %+v / %+v", o.Delivery, o.TimerWheel)
	}

	if srv.MetricsAddr() == "" {
		t.Fatal("no metrics address")
	}
	resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `xmovie_tenant_sessions_active{tenant="gold"} 1`) {
		t.Errorf("scrape missing gold tenant gauge:\n%s", body)
	}
}
