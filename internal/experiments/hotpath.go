// Hot-path micro-benchmarks for the performance trajectory: the same three
// paths the repository's -benchmem benchmarks cover (runtime send→select→
// fire, PDU append-encode/decode, MTP stream send/receive), runnable from
// cmd/mcambench so CI can emit machine-readable BENCH_*.json artifacts.
//
// The harnesses here mirror the package benchmarks in
// internal/estelle/bench_test.go, internal/mcam/bench_test.go and
// internal/mtp/bench_test.go (test-only code cannot be imported from a
// command); keep the workloads in sync when changing either side so the CI
// trajectory numbers stay comparable to the go-test benchmarks.
package experiments

import (
	"testing"

	"xmovie/internal/estelle"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
)

// HotPathResult is one measured hot path, serialized to BENCH_<name>.json.
type HotPathResult struct {
	// Name identifies the hot path (sendselectfire, pduencode, …).
	Name string `json:"name"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_op"`
	// MaxAllocs is the path's allocation budget (0 for the pooled/append
	// paths; a decoded PDU is one object plus its one string).
	MaxAllocs int64 `json:"max_allocs"`
	// Shape is the qualitative verdict: "ok" when allocs/op is within the
	// path's budget, "regression" otherwise — the trajectory flag CI tracks.
	Shape string `json:"shape"`
}

func hotResult(name string, maxAllocs int64, r testing.BenchmarkResult) HotPathResult {
	shape := "ok"
	if r.AllocsPerOp() > maxAllocs {
		shape = "regression"
	}
	return HotPathResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		MaxAllocs:   maxAllocs,
		Shape:       shape,
	}
}

var hotTokChannel = &estelle.ChannelDef{
	Name:  "HotTok",
	RoleA: "left",
	RoleB: "right",
	ByRole: map[string][]estelle.MsgDef{
		"left":  {{Name: "Tok"}},
		"right": {{Name: "Tok"}},
	},
}

func hotEchoDef(role string) *estelle.ModuleDef {
	return &estelle.ModuleDef{
		Name:   "HotEcho-" + role,
		Attr:   estelle.SystemProcess,
		IPs:    []estelle.IPDef{{Name: "P", Channel: hotTokChannel, Role: role}},
		States: []string{"Idle"},
		Trans: []estelle.Trans{{
			Name:   "echo",
			When:   estelle.On("P", "Tok"),
			Action: func(ctx *estelle.Ctx) { ctx.Output("P", "Tok") },
		}},
	}
}

func benchSendSelectFire(b *testing.B) {
	rt := estelle.NewRuntime()
	l, err := rt.AddSystem(hotEchoDef("left"), "l")
	if err != nil {
		b.Fatal(err)
	}
	r, err := rt.AddSystem(hotEchoDef("right"), "r")
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Connect(l.IP("P"), r.IP("P")); err != nil {
		b.Fatal(err)
	}
	st := estelle.NewStepper(rt)
	l.IP("P").Inject("Tok")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fired, _ := st.Step(); fired != 2 {
			b.Fatalf("pass fired %d transitions, want 2", fired)
		}
	}
}

func hotPDU() *mcam.PDU {
	return &mcam.PDU{Request: &mcam.Request{
		InvokeID: 42, Op: mcam.OpPlay, Movie: "clip-0042",
		Position: 1234, Count: 500,
		StreamAddr: "127.0.0.1:9000", StreamID: 7,
	}}
}

func benchPDUEncode(b *testing.B) {
	p := hotPDU()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = p.Append(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchPDUDecode(b *testing.B) {
	enc, err := hotPDU().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcam.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// hotReplayConn replays a pre-encoded packet sequence.
type hotReplayConn struct {
	pkts [][]byte
	i    int
}

func (c *hotReplayConn) Send([]byte) error { return nil }
func (c *hotReplayConn) Recv() ([]byte, error) {
	p := c.pkts[c.i]
	c.i++
	return p, nil
}

const (
	hotFrames    = 64
	hotFrameSize = 4096
)

// hotBatchSink discards packets and never has feedback.
type hotBatchSink struct{}

func (hotBatchSink) SendBatch(pkts []mtp.PacketVec) error { return nil }
func (hotBatchSink) TryRecv() ([]byte, bool)              { return nil, false }

func benchMTPSendVec(b *testing.B) {
	frames := make([][]byte, hotFrames)
	for i := range frames {
		frames[i] = make([]byte, hotFrameSize)
	}
	src := moviedb.SliceContent(frames).Open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.SeekTo(0); err != nil {
			b.Fatal(err)
		}
		st, err := mtp.NewStreamSender(hotBatchSink{}, mtp.StreamConfig{StreamID: 1}).Run(src)
		if err != nil || st.Sent != hotFrames {
			b.Fatalf("sent %d, err %v", st.Sent, err)
		}
	}
}

func benchMTPRecv(b *testing.B) {
	pkts := make([][]byte, 0, hotFrames+1)
	for i := 0; i < hotFrames; i++ {
		p := mtp.Packet{StreamID: 1, Seq: uint32(i), TSMicro: uint64(i) * 40000,
			Payload: make([]byte, hotFrameSize)}
		enc, err := p.Marshal(nil)
		if err != nil {
			b.Fatal(err)
		}
		pkts = append(pkts, enc)
	}
	eos := mtp.Packet{StreamID: 1, Seq: hotFrames, Flags: mtp.FlagEOS}
	encEOS, err := eos.Marshal(nil)
	if err != nil {
		b.Fatal(err)
	}
	pkts = append(pkts, encEOS)
	conn := &hotReplayConn{pkts: pkts}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.i = 0
		st, err := mtp.ReceiveStream(conn, mtp.ReceiverConfig{}, func(mtp.Frame) {})
		if err != nil {
			b.Fatal(err)
		}
		if st.Delivered != hotFrames {
			b.Fatalf("delivered %d, want %d", st.Delivered, hotFrames)
		}
	}
}

// HotPaths measures every tracked hot path and returns the results in a
// stable order. The per-path allocation budgets encode the expected shape:
// the pooled/append paths must stay allocation-free; the typed PDU decoder
// and per-stream setup may allocate a bounded amount.
func HotPaths() []HotPathResult {
	return []HotPathResult{
		hotResult("sendselectfire", 0, testing.Benchmark(benchSendSelectFire)),
		hotResult("pduencode", 0, testing.Benchmark(benchPDUEncode)),
		hotResult("pdudecode", 2, testing.Benchmark(benchPDUDecode)),
		hotResult("mtpsendvec", 8, testing.Benchmark(benchMTPSendVec)),
		hotResult("mtprecv", 2, testing.Benchmark(benchMTPRecv)),
	}
}
