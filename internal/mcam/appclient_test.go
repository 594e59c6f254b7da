package mcam

import (
	"errors"
	"testing"
	"time"

	"xmovie/internal/estelle"
)

// silentMovie names a movie the fake MCA never answers for.
const silentMovie = "silent"

// fakeMCADef answers every ARequest at once, except those for silentMovie.
func fakeMCADef() *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name:   "FakeMCA",
		Attr:   estelle.SystemProcess,
		IPs:    []estelle.IPDef{{Name: "U", Channel: UserChannel, Role: "provider"}},
		States: []string{"Ready"},
		Trans: []estelle.Trans{{
			Name: "request", When: estelle.On("U", "ARequest"),
			Action: func(ctx *estelle.Ctx) {
				req := ctx.Msg.Arg(0).(*Request)
				if req.Movie != silentMovie {
					ctx.Output("U", "AResponse", &Response{InvokeID: req.InvokeID, Op: req.Op})
				}
			},
		}},
	}
}

// TestAppClientCallTimerReuse: Call reuses one timer, so an expiry or a
// stopped deadline of one call must never reach the next.
func TestAppClientCallTimerReuse(t *testing.T) {
	rt := estelle.NewRuntime(estelle.WithStrict())
	mca, err := rt.AddSystem(fakeMCADef(), "mca")
	if err != nil {
		t.Fatal(err)
	}
	app := NewAppClient(mca.IP("U"))
	s := estelle.NewScheduler(rt, estelle.MapPerSystem)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	calls := int64(0)
	call := func(movie string, timeout time.Duration) error {
		calls++
		resp, err := app.Call(&Request{Op: OpSelect, Movie: movie}, timeout)
		if err == nil && resp.InvokeID != calls {
			t.Fatalf("response for invoke %d, want %d", resp.InvokeID, calls)
		}
		return err
	}
	// A call that times out, followed at once by one that succeeds.
	if err := call(silentMovie, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered call: %v, want ErrTimeout", err)
	}
	if err := call("m", 5*time.Second); err != nil {
		t.Fatalf("call after a timed-out one: %v", err)
	}
	// A call that succeeds well inside a short deadline, then a wait past
	// that deadline: the stopped timer must not fire into the next call.
	if err := call("m", 200*time.Millisecond); err != nil {
		t.Fatalf("short-deadline call: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := call("m", 5*time.Second); err != nil {
		t.Fatalf("call after a stopped deadline passed: %v", err)
	}
}

// lateMCADef holds its answer to a silentMovie request and sends it just
// ahead of its answer to the next request: the late response of a call
// that has already timed out.
func lateMCADef() *estelle.ModuleDef {
	var held *Response
	return &estelle.ModuleDef{
		Name:   "LateMCA",
		Attr:   estelle.SystemProcess,
		IPs:    []estelle.IPDef{{Name: "U", Channel: UserChannel, Role: "provider"}},
		States: []string{"Ready"},
		Trans: []estelle.Trans{{
			Name: "request", When: estelle.On("U", "ARequest"),
			Action: func(ctx *estelle.Ctx) {
				req := ctx.Msg.Arg(0).(*Request)
				if held != nil {
					ctx.Output("U", "AResponse", held)
					held = nil
				}
				resp := &Response{InvokeID: req.InvokeID, Op: req.Op}
				if req.Movie == silentMovie {
					held = resp
					return
				}
				ctx.Output("U", "AResponse", resp)
			},
		}},
	}
}

// TestAppClientDropsLateResponse: an answer that arrives after its call
// returned ErrTimeout is neither taken by the next call nor crowds that
// call's own answer out, so every later call gets its own response.
func TestAppClientDropsLateResponse(t *testing.T) {
	rt := estelle.NewRuntime(estelle.WithStrict())
	mca, err := rt.AddSystem(lateMCADef(), "mca")
	if err != nil {
		t.Fatal(err)
	}
	app := NewAppClient(mca.IP("U"))
	s := estelle.NewScheduler(rt, estelle.MapPerSystem)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	for round := 0; round < 3; round++ {
		if _, err := app.Call(&Request{Op: OpSelect, Movie: silentMovie}, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: unanswered call: %v, want ErrTimeout", round, err)
		}
		for i := 0; i < 3; i++ {
			req := &Request{Op: OpSelect, Movie: "m"}
			resp, err := app.Call(req, 5*time.Second)
			if err != nil {
				t.Fatalf("round %d, call %d after a late response: %v", round, i, err)
			}
			if resp.InvokeID != req.InvokeID {
				t.Fatalf("round %d, call %d: response for invoke %d, want %d", round, i, resp.InvokeID, req.InvokeID)
			}
		}
	}
}
