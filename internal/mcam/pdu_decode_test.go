package mcam

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// checkDecode requires the typed decoder and the schema oracle to agree on
// data — both reject it, or both accept it as the same PDU — and an
// accepted PDU to re-encode through Append and decode back to itself.
func checkDecode(t *testing.T, data []byte) {
	got, err := Decode(data)
	want, werr := decodeSchema(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Decode(%x): typed error %v, schema error %v", data, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%x):\n typed  %s\n schema %s", data, dump(got), dump(want))
	}
	enc, err := got.Append(nil)
	if err != nil {
		t.Fatalf("re-encode %s: %v", dump(got), err)
	}
	back, err := Decode(enc)
	if err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("re-encoded %s decodes to %s, %v", dump(got), dump(back), err)
	}
}

func dump(p *PDU) string {
	switch {
	case p == nil:
		return "<nil>"
	case p.Request != nil:
		return fmt.Sprintf("request %+v", *p.Request)
	case p.Response != nil:
		return fmt.Sprintf("response %+v", *p.Response)
	case p.Event != nil:
		return fmt.Sprintf("event %+v", *p.Event)
	}
	return "empty PDU"
}

// FuzzDecode runs checkDecode on arbitrary input. Its seeds, in
// testdata/fuzz/FuzzDecode, are the encodings of appendCorpus.
func FuzzDecode(f *testing.F) {
	f.Fuzz(checkDecode)
}

// TestDecodeMatchesSchema is FuzzDecode's check on a seeded sample that
// tier-1 runs without -fuzz: random PDUs, each decoded as encoded and
// then after a few random byte mutations.
func TestDecodeMatchesSchema(t *testing.T) {
	pdus, mutants := 20000, 8
	if testing.Short() {
		pdus = 2000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < pdus; i++ {
		p := randPDU(rng)
		enc, err := p.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Decode(enc); err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip of %s: %s, %v", dump(p), dump(got), err)
		}
		checkDecode(t, enc)
		for j := 0; j < mutants; j++ {
			m := enc
			for k := rng.Intn(3); k >= 0; k-- {
				m = mutate(rng, m)
			}
			checkDecode(t, m)
		}
	}
}

// mutate returns a copy of b with one random bit flip, byte overwrite,
// insertion, deletion or truncation.
func mutate(rng *rand.Rand, b []byte) []byte {
	b = append([]byte(nil), b...)
	switch op := rng.Intn(5); {
	case op == 0 && len(b) > 0:
		b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
	case op == 1 && len(b) > 0:
		b[rng.Intn(len(b))] = byte(rng.Intn(256))
	case op == 2:
		i := rng.Intn(len(b) + 1)
		b = append(b[:i], append([]byte{byte(rng.Intn(256))}, b[i:]...)...)
	case op == 3 && len(b) > 0:
		i := rng.Intn(len(b))
		b = append(b[:i], b[i+1:]...)
	default:
		b = b[:rng.Intn(len(b)+1)]
	}
	return b
}

func randPDU(rng *rand.Rand) *PDU {
	switch rng.Intn(3) {
	case 0:
		return &PDU{Request: &Request{
			InvokeID: randInt(rng), Op: Op(randInt(rng)), Movie: randStr(rng),
			Attrs: randAttrs(rng), Format: randInt(rng), FrameRate: randInt(rng),
			Position: randInt(rng), Count: randInt(rng), Device: randStr(rng),
			StreamAddr: randStr(rng), StreamID: randInt(rng),
		}}
	case 1:
		r := &Response{
			InvokeID: randInt(rng), Op: Op(randInt(rng)), Status: Status(randInt(rng)),
			Diagnostic: randStr(rng), Attrs: randAttrs(rng), Position: randInt(rng),
			Length: randInt(rng), FrameRate: randInt(rng), StreamID: randInt(rng),
			RetryAfterMs: randInt(rng),
		}
		for n := rng.Intn(4); n > 0; n-- {
			r.Movies = append(r.Movies, randStr(rng))
		}
		return &PDU{Response: r}
	default:
		return &PDU{Event: &Event{Kind: EventKind(randInt(rng)), StreamID: randInt(rng),
			Position: randInt(rng), Detail: randStr(rng)}}
	}
}

// randInt favours the encodings' edges: zero (an omitted optional field),
// one-octet values of either sign, and full-width values.
func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Int63n(256) - 128
	case 2:
		return rng.Int63n(1 << 20)
	default:
		return int64(rng.Uint64())
	}
}

// randStr is empty a third of the time and now and then long enough for a
// two-octet BER length.
func randStr(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return ""
	}
	n := 1 + rng.Intn(8)
	if rng.Intn(8) == 0 {
		n = 128 + rng.Intn(200)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randAttrs(rng *rand.Rand) []Attr {
	var attrs []Attr
	for n := rng.Intn(4); n > 0; n-- {
		attrs = append(attrs, Attr{Name: randStr(rng), Value: randStr(rng)})
	}
	return attrs
}

// TestPDUDecodeAllocs is the allocation guard of the typed decoder: a PDU
// is one object with its Request, Response or Event, plus one string
// conversion when it carries a string, plus one slice per list.
func TestPDUDecodeAllocs(t *testing.T) {
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("mv-%05d-%s", i, "title")
	}
	bench := benchPDUs()
	tests := []struct {
		name string
		pdu  *PDU
		max  float64
	}{
		{"request", bench[0], 2},
		{"event", bench[2], 1},
		{"attrs reply", bench[1], 3},
		{"1024-name list reply", &PDU{Response: &Response{InvokeID: 1, Op: OpListMovies, Movies: names}}, 3},
	}
	for _, tt := range tests {
		enc, err := tt.pdu.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tt.max {
			t.Errorf("%s: Decode allocates %.1f times, want at most %.0f", tt.name, allocs, tt.max)
		}
	}
}
