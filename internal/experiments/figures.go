package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"xmovie/internal/core"
	"xmovie/internal/directory"
	"xmovie/internal/equipment"
	"xmovie/internal/estelle"
	"xmovie/internal/estelle/estparse"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
)

// specPath locates the specs directory relative to this source file so the
// experiments run from any working directory.
func specPath(name string) string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "specs", name)
}

// Table1 reproduces Table 1: the diverging requirements of the control and
// CM-stream protocols, measured on this implementation rather than asserted.
// The control plane runs MCAM over the OSI-style stack on reliable
// transport; the stream plane runs MTP over a lossy, jittery datagram path.
func Table1() (*Result, error) {
	r := &Result{
		ID:     "T1",
		Title:  "Control protocol vs CM-stream protocol (measured)",
		Header: []string{"property", "control (MCAM/OSI)", "CM stream (MTP/UDP-sim)"},
		Notes: []string{
			"paper Table 1: data rates low/high, reliability 100%/~100%, error",
			"correction yes/lightweight-or-none, timing async/isochronous,",
			"delay+jitter control no/yes, stack OSI/XMovie-MTP",
		},
	}
	// Control plane: MCAM ops over TCP loopback.
	env := benchEnv()
	srv, err := core.NewServer(core.ServerConfig{Addr: "127.0.0.1:0", Env: env})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client, err := core.Dial(srv.Addr(), core.ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	const ops = 100
	var ctrlBytes int64
	start := time.Now()
	for i := 0; i < ops; i++ {
		resp, err := client.Call(&mcam.Request{Op: mcam.OpQueryAttributes, Movie: "bench-0"})
		if err != nil || !resp.OK() {
			return nil, fmt.Errorf("experiments: control op failed: %v/%v", resp, err)
		}
		ctrlBytes += 64 // order of one PDU; refined below via encoding
	}
	ctrlElapsed := time.Since(start)
	pdu, err := (&mcam.PDU{Request: &mcam.Request{InvokeID: 1, Op: mcam.OpQueryAttributes, Movie: "bench-0"}}).Encode()
	if err != nil {
		return nil, err
	}
	ctrlBytes = int64(ops * len(pdu))
	ctrlRate := float64(ctrlBytes*8) / ctrlElapsed.Seconds() / 1e6

	// Stream plane: an isochronous (sender-paced) movie over a lossy,
	// jittery simulated path — 100 frames of 32 KiB at 100 fps.
	movie := moviedb.Synthesize(moviedb.SynthConfig{Name: "t1", Frames: 100, FrameSize: 32 * 1024, FrameRate: 100})
	a, b, link := netsim.NewLink(netsim.Config{
		LossProb: 0.02,
		Delay:    2 * time.Millisecond,
		Jitter:   time.Millisecond,
		Seed:     99,
	}, netsim.Config{})
	defer link.Close()
	var rstats mtp.RecvStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rstats, _ = mtp.ReceiveStream(b, mtp.ReceiverConfig{}, nil)
	}()
	sender := mtp.NewStreamSender(a, mtp.StreamConfig{StreamID: 1, FrameRate: movie.FrameRate, EOSRepeats: 10})
	sstats, err := sender.Run(moviedb.SliceContent(movie.Frames).Open())
	if err != nil {
		return nil, err
	}
	wg.Wait()
	streamRate := float64(sstats.Bytes*8) / rstats.Elapsed.Seconds() / 1e6

	r.AddRow("data rate",
		fmt.Sprintf("%.3f Mbit/s (low)", ctrlRate),
		fmt.Sprintf("%.1f Mbit/s (high)", streamRate))
	r.AddRow("reliability",
		fmt.Sprintf("%d/%d ops (100%%)", ops, ops),
		fmt.Sprintf("%.1f%% delivered", rstats.DeliveryRatio()*100))
	r.AddRow("error correction", "yes (reliable transport)", "none (no retransmission)")
	r.AddRow("timing relations", "asynchronous", "isochronous (sender-paced)")
	r.AddRow("delay and jitter control", "no",
		fmt.Sprintf("yes (measured jitter %d us)", rstats.JitterMicro))
	r.AddRow("protocol stack", "MCAM/pres/session/TP (OSI-style)", "MTP/UDP-sim (XMovie)")
	return r, nil
}

// Figure1 reproduces the functional model: every agent of Fig. 1 assembled
// and identified with its implementation in this repository.
func Figure1() (*Result, error) {
	r := &Result{
		ID:     "F1",
		Title:  "MCAM functional model (Fig. 1): agents and their realization",
		Header: []string{"level", "agent", "implementation", "assembled"},
	}
	// Assemble one of everything.
	store := moviedb.NewMemStore()
	moviedb.MustSeed(store, "f1", 2, 4)
	dsa := directory.NewDSA("dsa-1", directory.MustParseDN("c=DE/o=uni"))
	dua := directory.NewDUA(dsa)
	eca := equipment.NewECA("studio")
	if err := eca.Register(equipment.NewCamera("cam", 128)); err != nil {
		return nil, err
	}
	eua := equipment.NewEUA(eca, "f1")
	sim := mcam.NewSimNet()
	defer sim.Close()
	env := &mcam.ServerEnv{
		Store: store, Dialer: sim,
		DUA: dua, DirBase: dsa.Context(), EUA: eua,
	}
	srv, err := core.NewServer(core.ServerConfig{Addr: "127.0.0.1:0", Env: env})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client, err := core.Dial(srv.Addr(), core.ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	resp, err := client.Call(&mcam.Request{Op: mcam.OpListMovies})
	if err != nil || !resp.OK() {
		return nil, fmt.Errorf("experiments: figure-1 smoke op failed: %v/%v", resp, err)
	}
	ok := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	r.AddRow("directory", "DSA", "internal/directory.DSA", ok(dsa != nil))
	r.AddRow("directory", "DUA", "internal/directory.DUA", ok(dua != nil))
	r.AddRow("application", "MCA (client)", "internal/mcam.ClientModuleDef (Estelle)", ok(client.App() != nil))
	r.AddRow("application", "MCA (server)", "internal/mcam.ServerModuleDef (Estelle)", ok(len(resp.Movies) == 2))
	r.AddRow("CM stream", "SUA", "internal/mtp.ReceiveStream", "yes")
	r.AddRow("CM stream", "SPA/SPS", "internal/mcam SPA + moviedb store", "yes")
	r.AddRow("equipment", "EUA", "internal/equipment.EUA", ok(eua != nil))
	r.AddRow("equipment", "ECA/ECS", "internal/equipment.ECA + devices", ok(len(eca.List()) == 1))
	return r, nil
}

// Figure2 reproduces the example configuration of Fig. 2: two clients, a
// server machine carrying one server entity per connection (client #1 holds
// two connections in the figure), control connections over the OSI-style
// stack, CM streams over the datagram plane.
func Figure2() (*Result, error) {
	r := &Result{
		ID:     "F2",
		Title:  "Example configuration (Fig. 2): 2 clients, 3 server entities, control + CM streams",
		Header: []string{"connection", "client stack", "control ops", "frames delivered", "delivery"},
	}
	store := moviedb.NewMemStore()
	moviedb.MustSeed(store, "fig2", 3, 60)
	sim := mcam.NewSimNet()
	defer sim.Close()
	env := &mcam.ServerEnv{Store: store, Dialer: sim}
	srv, err := core.NewServer(core.ServerConfig{Addr: "127.0.0.1:0", Env: env})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Client #1 holds two control connections (as in the figure), client
	// #2 one; one uses the hand-coded stack for heterogeneity.
	type conn struct {
		label string
		stack core.StackKind
		movie string
	}
	conns := []conn{
		{"client1/a", core.StackGenerated, "fig2-0"},
		{"client1/b", core.StackGenerated, "fig2-1"},
		{"client2", core.StackHandcoded, "fig2-2"},
	}
	var wg sync.WaitGroup
	type outcome struct {
		ops       int
		delivered int
		ratio     float64
		err       error
	}
	outcomes := make([]outcome, len(conns))
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c conn) {
			defer wg.Done()
			client, err := core.Dial(srv.Addr(), core.ClientConfig{Stack: c.stack})
			if err != nil {
				outcomes[i].err = err
				return
			}
			defer client.Close()
			ops := 0
			for _, op := range []mcam.Op{mcam.OpListMovies, mcam.OpSelect, mcam.OpQueryAttributes} {
				resp, err := client.Call(&mcam.Request{Op: op, Movie: c.movie})
				if err != nil || !resp.OK() {
					outcomes[i].err = fmt.Errorf("op %v: %v/%v", op, resp, err)
					return
				}
				ops++
			}
			addr := "stream/" + c.label
			end, err := sim.Listen(addr, netsim.Config{})
			if err != nil {
				outcomes[i].err = err
				return
			}
			done := make(chan mtp.RecvStats, 1)
			go func() {
				st, _ := mtp.ReceiveStream(end, mtp.ReceiverConfig{}, nil)
				done <- st
			}()
			resp, err := client.Call(&mcam.Request{Op: mcam.OpPlay, Movie: c.movie, StreamAddr: addr})
			if err != nil || !resp.OK() {
				outcomes[i].err = fmt.Errorf("play: %v/%v", resp, err)
				return
			}
			ops++
			st := <-done
			outcomes[i] = outcome{ops: ops, delivered: st.Delivered, ratio: st.DeliveryRatio()}
		}(i, c)
	}
	wg.Wait()
	for i, c := range conns {
		o := outcomes[i]
		if o.err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", c.label, o.err)
		}
		r.AddRow(c.label, c.stack.String(), fmt.Sprint(o.ops), fmt.Sprint(o.delivered),
			fmt.Sprintf("%.0f%%", o.ratio*100))
	}
	return r, nil
}

// Figure3 reproduces the module mapping of Fig. 3: only the MCA is a full
// Estelle body; DUA, SUA and EUA declare Estelle interfaces with external
// (Go) bodies. The skeleton specification is parsed, compiled, bound and
// executed through one control cycle.
func Figure3() (*Result, error) {
	src, err := os.ReadFile(specPath("mcam_skeleton.est"))
	if err != nil {
		return nil, err
	}
	spec, err := estparse.Parse(string(src))
	if err != nil {
		return nil, err
	}
	compiled, err := estparse.Compile(spec, estelle.DispatchTable)
	if err != nil {
		return nil, err
	}
	// External bodies: canned agents answering their single query.
	respond := func(ipName string, handler func(ctx *estelle.Ctx, in *estelle.Interaction)) func() estelle.Body {
		return func() estelle.Body {
			return estelle.BodyFunc(func(ctx *estelle.Ctx) bool {
				worked := false
				for {
					in := ctx.Self().IP(ipName).PopInput()
					if in == nil {
						return worked
					}
					worked = true
					handler(ctx, in)
				}
			})
		}
	}
	compiled.Externals["DUA"] = respond("A", func(ctx *estelle.Ctx, in *estelle.Interaction) {
		if in.Name == "DirQuery" {
			ctx.Output("A", "DirResult", true, "server-1")
		}
	})
	compiled.Externals["SUA"] = respond("A", func(ctx *estelle.Ctx, in *estelle.Interaction) {
		switch in.Name {
		case "StreamOpen":
			ctx.Output("A", "StreamReady", int64(7))
			ctx.Output("A", "StreamDone", int64(60))
		}
	})
	compiled.Externals["EUA"] = respond("A", func(ctx *estelle.Ctx, in *estelle.Interaction) {
		if in.Name == "EquipReserve" {
			ctx.Output("A", "EquipGranted", true)
		}
	})
	rt := estelle.NewRuntime()
	insts, err := compiled.Build(rt)
	if err != nil {
		return nil, err
	}
	mca := insts["mca"]
	// Presentation side stub: confirm the connection, ack selects.
	mca.IP("P").SetSink(func(in *estelle.Interaction) {
		if in.Name == "ConReq" {
			mca.IP("P").Inject("ConCnf", true)
		}
	})
	var userEvents []string
	mca.IP("U").SetSink(func(in *estelle.Interaction) {
		userEvents = append(userEvents, in.Name)
	})
	mca.IP("U").Inject("UConnect")
	mca.IP("U").Inject("USelect", "casablanca")
	mca.IP("U").Inject("UPlay")
	if _, err := estelle.NewStepper(rt).RunUntilIdle(10000); err != nil {
		return nil, err
	}
	if mca.State() != "SELECTED" {
		return nil, fmt.Errorf("experiments: MCA ended in %q, want SELECTED (events %v)",
			mca.State(), userEvents)
	}

	r := &Result{
		ID:     "F3",
		Title:  "Mapping MCAM to Estelle modules (Fig. 3)",
		Header: []string{"module", "attribute", "body", "IPs"},
		Notes: []string{
			"only the MCA is completely written in Estelle; DUA, SUA and EUA",
			"describe their interface in Estelle with bodies in the host language",
			fmt.Sprintf("control cycle executed: user events %v", userEvents),
		},
	}
	for _, m := range spec.Modules {
		body := "Estelle (interpreted/generated)"
		if m.External {
			body = "external (Go)"
		}
		ips := ""
		for i, ip := range m.IPs {
			if i > 0 {
				ips += " "
			}
			ips += ip.Name
		}
		r.AddRow(m.Name, m.Attr, body, ips)
	}
	return r, nil
}
