package estparse

import (
	"os"
	"strings"
	"testing"

	"xmovie/internal/estelle"
)

func readSpec(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("../../../specs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestParsePingPong(t *testing.T) {
	spec, err := Parse(readSpec(t, "pingpong.est"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "PingPong" {
		t.Errorf("name = %q", spec.Name)
	}
	if len(spec.Channels) != 1 || len(spec.Modules) != 2 || len(spec.Bodies) != 2 {
		t.Fatalf("channels=%d modules=%d bodies=%d",
			len(spec.Channels), len(spec.Modules), len(spec.Bodies))
	}
	ch := spec.Channels[0]
	if ch.RoleA != "caller" || ch.RoleB != "callee" {
		t.Errorf("roles = %s/%s", ch.RoleA, ch.RoleB)
	}
	if len(ch.ByRole["caller"]) != 1 || ch.ByRole["caller"][0].Name != "Ping" {
		t.Errorf("caller msgs = %v", ch.ByRole["caller"])
	}
	pinger := spec.Bodies[0]
	if len(pinger.States) != 3 || len(pinger.Trans) != 3 || len(pinger.Vars) != 2 {
		t.Errorf("pinger body = %+v", pinger)
	}
	if len(spec.Config) != 5 {
		t.Errorf("config stmts = %d", len(spec.Config))
	}
}

func TestInterpretPingPong(t *testing.T) {
	spec, err := Parse(readSpec(t, "pingpong.est"))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rt := estelle.NewRuntime(estelle.WithStrict())
	insts, err := compiled.Build(rt)
	if err != nil {
		t.Fatal(err)
	}
	fired, err := estelle.NewStepper(rt).RunUntilIdle(100000)
	if err != nil {
		t.Fatal(err)
	}
	a := insts["a"]
	if a.State() != "DONE" {
		t.Errorf("pinger state = %q", a.State())
	}
	if got := a.Var("count"); got != int64(10) {
		t.Errorf("count = %v", got)
	}
	// kickoff + 10 pings + 10 pongs.
	if fired != 21 {
		t.Errorf("fired = %d, want 21", fired)
	}
}

// lossyMedium is the Go-implemented external body of the ABP spec's Medium
// module: it relays frames/acks between its two IPs, dropping every third
// frame.
type lossyMedium struct {
	frames  int
	dropped int
}

func (m *lossyMedium) Step(ctx *estelle.Ctx) bool {
	worked := false
	relay := func(from, to string) {
		ip := ctx.Self().IP(from)
		for {
			in := ip.PopInput()
			if in == nil {
				return
			}
			worked = true
			switch in.Name {
			case "Frame":
				m.frames++
				if m.frames%3 == 0 {
					m.dropped++
					continue
				}
				ctx.Output(to, "FrameInd", in.Arg(0), in.Arg(1))
			case "Ack":
				ctx.Output(to, "AckInd", in.Arg(0))
			}
		}
	}
	relay("A", "B")
	relay("B", "A")
	return worked
}

func TestInterpretAlternatingBit(t *testing.T) {
	spec, err := Parse(readSpec(t, "abp.est"))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	medium := &lossyMedium{}
	compiled.Externals["Medium"] = func() estelle.Body { return medium }

	clk := estelle.NewManualClock()
	rt := estelle.NewRuntime(estelle.WithClock(clk))
	insts, err := compiled.Build(rt)
	if err != nil {
		t.Fatal(err)
	}
	sender, receiver := insts["s"], insts["r"]

	var delivered []string
	receiver.IP("U").SetSink(func(in *estelle.Interaction) {
		if in.Name == "DeliverInd" {
			delivered = append(delivered, in.Str(0))
		}
	})
	const n = 20
	for i := 0; i < n; i++ {
		sender.IP("U").Inject("SendReq", string(rune('a'+i)))
	}
	if _, err := estelle.NewStepper(rt).RunUntilIdle(1000000); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d (medium dropped %d)", len(delivered), n, medium.dropped)
	}
	for i, s := range delivered {
		if s != string(rune('a'+i)) {
			t.Errorf("message %d = %q", i, s)
		}
	}
	if medium.dropped == 0 {
		t.Error("medium dropped nothing; the retransmission path was not exercised")
	}
	if sender.State() != "WAIT_SEND" {
		t.Errorf("sender state = %q", sender.State())
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"no spec", "module X process; end;", "expected \"specification\""},
		{"bad attr", "specification S; module M bogus; end; end.", "attribute"},
		{"unknown channel", `specification S;
			module M process; ip P: Nowhere(user); end; end.`, "unknown channel"},
		{"bad role", `specification S;
			channel C(a, b); module M process; ip P: C(z); end; end.`, "no role"},
		{"unknown state", `specification S;
			channel C(a, b); by a: X;
			module M process; ip P: C(a); end;
			body B for M; state S1; trans from NOWHERE begin end; end; end.`, "unknown state"},
		{"bad when msg", `specification S;
			channel C(a, b); by a: X;
			module M process; ip P: C(a); end;
			body B for M; state S1; trans from S1 when P.X begin end; end; end.`, "never sends"},
		{"duplicate module", `specification S;
			module M process; end; module M process; end; end.`, "duplicate module"},
		{"init unknown body", `specification S;
			module M systemprocess; end;
			modvar v: M; init v with Nope; end.`, "unknown body"},
		{"connect unknown ip", `specification S;
			channel C(a, b); by a: X;
			module M systemprocess; ip P: C(a); end;
			body B for M; end;
			modvar v: M; modvar w: M;
			init v with B; init w with B;
			connect v.Q to w.P; end.`, "no IP"},
		{"unterminated string", `specification S; -- x
			channel C(a, b); by a: X("unterminated`, "unterminated"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("parse accepted bad input")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want substring %q", err, tt.want)
			}
		})
	}
}

func TestExpressionEvaluation(t *testing.T) {
	// A module whose single transition computes into variables, covering
	// the interpreter's operators.
	src := `specification Calc;
	channel C(a, b);
	  by a: Go;
	module M systemprocess;
	  ip P: C(b);
	end;
	body MB for M;
	  state S, T;
	  var x: integer; y: integer; b1: boolean; s1: octetstring;
	  initialize to S begin
	    x := 2 + 3 * 4;
	    y := (20 - 2) div 3 mod 4;
	    b1 := (x = 14) and not (y > 5) or false;
	    s1 := "mo" + "vie";
	  end;
	  trans
	    from S to T provided b1 begin
	      x := -x;
	      while x < 0 do begin x := x + 5 end;
	      if x > 3 then begin y := 1 end else begin y := 2 end;
	    end;
	end;
	modvar v: M;
	init v with MB;
	end.`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Linear dispatch stays exercised on an interpreted spec.
	compiled.Defs["MB"].Dispatch = estelle.DispatchLinear
	rt := estelle.NewRuntime()
	insts, err := compiled.Build(rt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := estelle.NewStepper(rt).RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	v := insts["v"]
	if v.State() != "T" {
		t.Fatalf("state = %q (b1 = %v, x = %v, y = %v)", v.State(), v.Var("b1"), v.Var("x"), v.Var("y"))
	}
	// x: 14 -> -14 -> +5 loop -> 1; then if 1 > 3 false -> y = 2.
	if v.Var("x") != int64(1) || v.Var("y") != int64(2) {
		t.Errorf("x = %v, y = %v", v.Var("x"), v.Var("y"))
	}
	if v.Var("s1") != "movie" {
		t.Errorf("s1 = %v", v.Var("s1"))
	}
}

func TestCommentStyles(t *testing.T) {
	src := `specification S; -- line comment
	{ brace comment
	  over lines }
	(* pascal comment *)
	channel C(a, b); by a: X;
	module M systemprocess; ip P: C(a); end;
	body B for M; end;
	end.`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestDivModByZeroErrors(t *testing.T) {
	src := `specification S;
	module M systemprocess; end;
	body B for M;
	  state S1;
	  var x: integer;
	  initialize to S1 begin x := 1 end;
	  trans from S1 begin x := x div 0 end;
	end;
	modvar v: M; init v with B;
	end.`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rt := estelle.NewRuntime()
	if _, err := compiled.Build(rt); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("division by zero did not panic")
		}
	}()
	_, _ = estelle.NewStepper(rt).RunUntilIdle(10)
}
