// Package gen_test proves the generated code path end to end: the Go
// sources in the subpackages were produced by estgen from specs/, compile
// as part of this repository, and behave identically to the interpreted
// specifications — the paper's claim that derived implementations are
// faithful to their formal descriptions.
package gen_test

import (
	"os"
	"reflect"
	"testing"

	"xmovie/internal/estelle"
	"xmovie/internal/estelle/estparse"
	"xmovie/internal/gen/abp"
	"xmovie/internal/gen/pingpong"
)

func TestGeneratedPingPongRuns(t *testing.T) {
	rt := estelle.NewRuntime(estelle.WithStrict())
	insts, err := pingpong.BuildPingPong(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	fired, err := estelle.NewStepper(rt).RunUntilIdle(100000)
	if err != nil {
		t.Fatal(err)
	}
	a := insts["a"]
	if a.State() != "DONE" {
		t.Errorf("state = %q", a.State())
	}
	if a.Var("count") != int64(10) {
		t.Errorf("count = %v", a.Var("count"))
	}
	if fired != 21 {
		t.Errorf("fired = %d", fired)
	}
}

// TestGeneratedMatchesInterpretedTrace runs the same specification through
// the interpreter and through the generated code, recording both transition
// traces; they must be identical step for step.
func TestGeneratedMatchesInterpretedTrace(t *testing.T) {
	type step struct {
		Module, From, To, Msg string
	}
	run := func(build func(rt *estelle.Runtime) error) []step {
		var trace []step
		rt := estelle.NewRuntime(estelle.WithTrace(func(e estelle.TraceEvent) {
			trace = append(trace, step{e.Module, e.From, e.To, e.Msg})
		}))
		if err := build(rt); err != nil {
			t.Fatal(err)
		}
		if _, err := estelle.NewStepper(rt).RunUntilIdle(100000); err != nil {
			t.Fatal(err)
		}
		return trace
	}

	genTrace := run(func(rt *estelle.Runtime) error {
		_, err := pingpong.BuildPingPong(rt, nil)
		return err
	})
	src, err := os.ReadFile("../../specs/pingpong.est")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := estparse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := estparse.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	intTrace := run(func(rt *estelle.Runtime) error {
		_, err := compiled.Build(rt)
		return err
	})
	if !reflect.DeepEqual(genTrace, intTrace) {
		t.Errorf("traces diverge:\ngenerated   %v\ninterpreted %v", genTrace, intTrace)
	}
	if len(genTrace) != 21 {
		t.Errorf("trace length = %d", len(genTrace))
	}
}

// relayMedium forwards everything, dropping every third frame, as the
// estparse test's medium does.
type relayMedium struct {
	frames, dropped int
}

func (m *relayMedium) Step(ctx *estelle.Ctx) bool {
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

func TestGeneratedABPDeliversDespiteLoss(t *testing.T) {
	clk := estelle.NewManualClock()
	rt := estelle.NewRuntime(estelle.WithClock(clk))
	medium := &relayMedium{}
	insts, err := abp.BuildAlternatingBit(rt,
		map[string]estelle.Body{"Medium": medium})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []string
	insts["r"].IP("U").SetSink(func(in *estelle.Interaction) {
		if in.Name == "DeliverInd" {
			delivered = append(delivered, in.Str(0))
		}
	})
	const n = 15
	for i := 0; i < n; i++ {
		insts["s"].IP("U").Inject("SendReq", string(rune('A'+i)))
	}
	if _, err := estelle.NewStepper(rt).RunUntilIdle(1000000); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d (dropped %d)", len(delivered), n, medium.dropped)
	}
	for i, s := range delivered {
		if s != string(rune('A'+i)) {
			t.Errorf("message %d = %q", i, s)
		}
	}
	if medium.dropped == 0 {
		t.Error("no frames dropped; retransmission untested")
	}
}
