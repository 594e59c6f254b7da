package experiments

import (
	"fmt"
	"time"

	"xmovie/internal/estelle"
	"xmovie/internal/presentation"
	"xmovie/internal/session"
	"xmovie/internal/transport"
)

// driverState tracks one §5.1 initiator/responder pair.
type driverState struct {
	toSend   int
	sent     int
	received int
}

// initiatorDef is the §5.1 test initiator: connect, then fire n small
// P-Data units ("very small P-Data units ... the worst case for
// parallelization").
func initiatorDef(n int, payload []byte) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "Initiator", Attr: estelle.Process,
		IPs:    []estelle.IPDef{{Name: "P", Channel: presentation.ServiceChannel, Role: "user"}},
		States: []string{"Start", "Connecting", "Running", "Done"},
		Init: func(ctx *estelle.Ctx) {
			ctx.SetBody(&driverState{toSend: n})
		},
		Trans: []estelle.Trans{
			{
				Name: "kickoff", From: []string{"Start"}, To: "Connecting",
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("P", "PConReq", "responder",
						[]presentation.Context{{ID: 1, AbstractSyntax: "bench"}}, []byte(nil))
				},
			},
			{
				Name: "connected", From: []string{"Connecting"}, When: estelle.On("P", "PConCnf"),
				To: "Running",
			},
			{
				Name: "send", From: []string{"Running"},
				Provided: func(ctx *estelle.Ctx) bool {
					st := ctx.Body().(*driverState)
					return st.sent < st.toSend
				},
				Action: func(ctx *estelle.Ctx) {
					st := ctx.Body().(*driverState)
					ctx.Output("P", "PDatReq", int64(1), payload)
					st.sent++
					if st.sent == st.toSend {
						ctx.ToState("Done")
					}
				},
			},
		},
	}
}

// responderDef accepts the connection and counts delivered data units.
func responderDef() *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "Responder", Attr: estelle.Process,
		IPs:    []estelle.IPDef{{Name: "P", Channel: presentation.ServiceChannel, Role: "user"}},
		States: []string{"Idle", "Running"},
		Init: func(ctx *estelle.Ctx) {
			ctx.SetBody(&driverState{})
		},
		Trans: []estelle.Trans{
			{
				Name: "accept", From: []string{"Idle"}, When: estelle.On("P", "PConInd"),
				To: "Running",
				Action: func(ctx *estelle.Ctx) {
					ctx.Output("P", "PConResp", true, []byte(nil))
				},
			},
			{
				Name: "count", From: []string{"Running"}, When: estelle.On("P", "PDatInd"),
				Action: func(ctx *estelle.Ctx) {
					ctx.Body().(*driverState).received++
				},
			},
		},
	}
}

// connDef wraps one §5.1 connection — initiator stack, pipe, responder
// stack — as a GroupRoot system module so connection-per-unit mapping keeps
// it together.
func connDef(n int, payload []byte) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "BenchConn", Attr: estelle.SystemProcess, GroupRoot: true,
		Init: func(ctx *estelle.Ctx) {
			ini := ctx.MustInit(initiatorDef(n, payload), "init")
			iPres := ctx.MustInit(presentation.ProtocolMachineDef(), "ipres")
			iSess := ctx.MustInit(session.ProtocolMachineDef(), "isess")
			pipe := ctx.MustInit(transport.PipeProviderDef(), "pipe")
			rSess := ctx.MustInit(session.ProtocolMachineDef(), "rsess")
			rPres := ctx.MustInit(presentation.ProtocolMachineDef(), "rpres")
			resp := ctx.MustInit(responderDef(), "resp")
			wire := func(a, b *estelle.IP) {
				if err := ctx.Connect(a, b); err != nil {
					panic(err)
				}
			}
			wire(ini.IP("P"), iPres.IP("P"))
			wire(iPres.IP("S"), iSess.IP("S"))
			wire(iSess.IP("T"), pipe.IP("A"))
			wire(rSess.IP("T"), pipe.IP("B"))
			wire(rPres.IP("S"), rSess.IP("S"))
			wire(resp.IP("P"), rPres.IP("P"))
		},
	}
}

// runStacks builds `conns` connections each carrying `reqs` data units and
// runs them under the given mapping, returning the wall time to
// quiescence. procs limits virtual processors (0 = unlimited).
func runStacks(conns, reqs int, mapping estelle.MappingFunc, procs int) (time.Duration, error) {
	payload := []byte{0xab, 0xcd} // "very small P-Data units"
	rt := estelle.NewRuntime()
	roots := make([]*estelle.Instance, conns)
	for i := range roots {
		inst, err := rt.AddSystem(connDef(reqs, payload), fmt.Sprintf("conn%d", i))
		if err != nil {
			return 0, err
		}
		roots[i] = inst
	}
	var opts []estelle.SchedOption
	if procs > 0 {
		opts = append(opts, estelle.WithProcessors(procs))
	}
	s := estelle.NewScheduler(rt, mapping, opts...)
	start := time.Now()
	if err := s.RunToQuiescence(120 * time.Second); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	// Verify completion: every responder saw every data unit.
	for _, root := range roots {
		for _, child := range root.Children() {
			if child.Def().Name == "Responder" {
				st := child.Body().(*driverState)
				if st.received != reqs {
					return 0, fmt.Errorf("experiments: responder got %d of %d", st.received, reqs)
				}
			}
		}
	}
	return elapsed, nil
}

// Exp1SeqVsPar reproduces §5.1: sequential versus parallel execution of the
// presentation+session kernel over a simulated transport pipe, two (and
// more) connections, varying numbers of small data requests. The paper
// reports speedups of 1.4-2.0 at 2 connections.
func Exp1SeqVsPar() (*Result, error) {
	r := &Result{
		ID:    "E1",
		Title: "Sequential vs parallel pres+ses kernel (simulated transport pipe, small P-Data units)",
		Header: []string{"connections", "data reqs", "sequential",
			"per-module", "speedup", "per-connection", "speedup"},
		Notes: []string{
			"paper §5.1: speedup 1.4-2.0 with 2 connections, parallel presentation and session",
			"sequential = one unit; per-module = max parallelism (generator v1);",
			"per-connection = each connection's stack in its own unit (the mapping §3 favours)",
		},
	}
	for _, conns := range []int{1, 2, 4} {
		for _, reqs := range []int{200, 1000} {
			seq, err := runStacks(conns, reqs, estelle.MapSingleUnit, 0)
			if err != nil {
				return nil, err
			}
			perMod, err := runStacks(conns, reqs, estelle.MapPerInstance, 0)
			if err != nil {
				return nil, err
			}
			perConn, err := runStacks(conns, reqs, estelle.MapPerGroupRoot, 0)
			if err != nil {
				return nil, err
			}
			r.AddRow(fmt.Sprint(conns), fmt.Sprint(reqs), seq.String(),
				perMod.String(), f2(ratio(float64(seq), float64(perMod))),
				perConn.String(), f2(ratio(float64(seq), float64(perConn))))
		}
	}
	return r, nil
}

// Exp8ConnVsLayer reproduces §3's observation that connection-per-processor
// beats layer-per-processor: the same workload mapped per connection
// subtree versus per module definition (layer).
func Exp8ConnVsLayer() (*Result, error) {
	r := &Result{
		ID:     "E8",
		Title:  "Connection-per-processor vs layer-per-processor mapping",
		Header: []string{"connections", "data reqs", "per-connection", "per-layer", "conn/layer"},
		Notes: []string{
			"paper §3: initial experiments have shown that connection-per-processor",
			"will yield better performance than layer-per-processor",
		},
	}
	for _, conns := range []int{2, 4, 8} {
		reqs := 500
		byConn, err := runStacks(conns, reqs, estelle.MapPerGroupRoot, 0)
		if err != nil {
			return nil, err
		}
		byLayer, err := runStacks(conns, reqs, estelle.MapByModuleName, 0)
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprint(conns), fmt.Sprint(reqs), byConn.String(), byLayer.String(),
			f2(ratio(float64(byLayer), float64(byConn))))
	}
	return r, nil
}

// Exp2Grouping reproduces §5.2's grouping scheme: when modules outnumber
// processors, one-thread-per-module loses to grouping modules into as many
// units as there are processors.
func Exp2Grouping() (*Result, error) {
	const procs = 4
	r := &Result{
		ID:    "E2",
		Title: fmt.Sprintf("Module-per-thread vs grouped units (%d virtual processors)", procs),
		Header: []string{"connections", "units=modules", "blind grouping",
			"connection grouping", "grouped speedup"},
		Notes: []string{
			"paper §5.2: group Estelle modules into one unit per processor to avoid",
			"synchronization losses when modules share processors; the grouping must",
			"keep communicating modules together (blind grouping shows why)",
		},
	}
	for _, conns := range []int{4, 8, 16} {
		reqs := 300
		perModule, err := runStacks(conns, reqs, estelle.MapPerInstance, procs)
		if err != nil {
			return nil, err
		}
		blind, err := runStacks(conns, reqs, estelle.MapRoundRobin(procs), procs)
		if err != nil {
			return nil, err
		}
		grouped, err := runStacks(conns, reqs, estelle.MapGroupedConnections(procs), procs)
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprint(conns), perModule.String(), blind.String(), grouped.String(),
			f2(ratio(float64(perModule), float64(grouped))))
	}
	return r, nil
}

// pipelineStageDef is one stage of the E3 module pipeline: it consumes a
// token, spins `work` iterations, and forwards the token.
func pipelineStageDef(work int) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "Stage", Attr: estelle.Process,
		IPs: []estelle.IPDef{
			{Name: "In", Channel: tokenChannel, Role: "consumer"},
			{Name: "Out", Channel: tokenChannel, Role: "producer"},
		},
		States: []string{"Run"},
		Trans: []estelle.Trans{{
			Name: "process", When: estelle.On("In", "Token"),
			Action: func(ctx *estelle.Ctx) {
				spin(work)
				ctx.Output("Out", "Token", ctx.Msg.Arg(0))
			},
		}},
	}
}

var tokenChannel = &estelle.ChannelDef{
	Name:  "TokenChannel",
	RoleA: "producer",
	RoleB: "consumer",
	ByRole: map[string][]estelle.MsgDef{
		"producer": {{Name: "Token", Params: []estelle.ParamDef{{Name: "n", Type: "integer"}}}},
	},
}

// spinSink is written by spin so the work loop cannot be optimized away.
var spinSink int64

func spin(n int) {
	acc := int64(1)
	for i := 0; i < n; i++ {
		acc = acc*1664525 + 1013904223
	}
	spinSink = acc
}

// feederDef pushes `tokens` tokens into the pipeline.
func feederDef(tokens int) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "Feeder", Attr: estelle.Process,
		IPs:    []estelle.IPDef{{Name: "Out", Channel: tokenChannel, Role: "producer"}},
		States: []string{"Feeding", "Done"},
		Init:   func(ctx *estelle.Ctx) { ctx.SetVar("fed", 0) },
		Trans: []estelle.Trans{{
			Name: "feed", From: []string{"Feeding"},
			Action: func(ctx *estelle.Ctx) {
				n := ctx.Var("fed").(int)
				ctx.Output("Out", "Token", int64(n))
				ctx.SetVar("fed", n+1)
				if n+1 == tokens {
					ctx.ToState("Done")
				}
			},
		}},
	}
}

// drainerDef counts tokens leaving the pipeline.
func drainerDef(done *int) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "Drainer", Attr: estelle.Process,
		IPs:    []estelle.IPDef{{Name: "In", Channel: tokenChannel, Role: "consumer"}},
		States: []string{"Run"},
		Trans: []estelle.Trans{{
			Name: "drain", When: estelle.On("In", "Token"),
			Action: func(*estelle.Ctx) { *done++ },
		}},
	}
}

// pipelineRootDef chains `stages` stage modules, each doing work/stages
// iterations, between a feeder and a drainer. The root itself has no
// transitions so every child can live in its own scheduling unit.
func pipelineRootDef(stages, work, tokens int, done *int) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name: "Pipeline", Attr: estelle.SystemProcess,
		Init: func(ctx *estelle.Ctx) {
			feeder := ctx.MustInit(feederDef(tokens), "feeder")
			drainer := ctx.MustInit(drainerDef(done), "drainer")
			prev := feeder.IP("Out")
			for i := 0; i < stages; i++ {
				st := ctx.MustInit(pipelineStageDef(work/stages), fmt.Sprintf("stage%d", i))
				if err := ctx.Connect(prev, st.IP("In")); err != nil {
					panic(err)
				}
				prev = st.IP("Out")
			}
			if err := ctx.Connect(prev, drainer.IP("In")); err != nil {
				panic(err)
			}
		},
	}
}

// Exp3Pipeline reproduces §5.2's module-splitting advice: a long-running
// computation split into a pipeline of modules processes a message stream
// faster because stages run on different processors.
func Exp3Pipeline() (*Result, error) {
	const work = 20000
	const tokens = 400
	r := &Result{
		ID:     "E3",
		Title:  fmt.Sprintf("Module pipeline: one module vs split stages (work %d, %d messages)", work, tokens),
		Header: []string{"stages", "elapsed", "speedup vs 1"},
		Notes: []string{
			"paper §5.2: modules performing several long-running computations",
			"sequentially may be split ... resulting in a module pipeline where",
			"data is processed in parallel",
		},
	}
	var base time.Duration
	for _, stages := range []int{1, 2, 4} {
		done := 0
		rt := estelle.NewRuntime()
		if _, err := rt.AddSystem(pipelineRootDef(stages, work, tokens, &done), "pipe"); err != nil {
			return nil, err
		}
		s := estelle.NewScheduler(rt, estelle.MapPerInstance)
		start := time.Now()
		if err := s.RunToQuiescence(120 * time.Second); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if done != tokens {
			return nil, fmt.Errorf("experiments: pipeline drained %d of %d", done, tokens)
		}
		if stages == 1 {
			base = elapsed
		}
		r.AddRow(fmt.Sprint(stages), elapsed.String(), f2(ratio(float64(base), float64(elapsed))))
	}
	return r, nil
}
