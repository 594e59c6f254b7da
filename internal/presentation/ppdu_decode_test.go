package presentation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// checkDecode requires the typed decoder and the schema oracle to agree on
// data — both reject it, or both accept it as the same PPDU — and an
// accepted PPDU to re-encode through Append and decode back to itself.
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

func dump(p *PPDU) string {
	switch {
	case p == nil:
		return "<nil>"
	case p.CP != nil:
		return fmt.Sprintf("CP %+v", *p.CP)
	case p.CPA != nil:
		return fmt.Sprintf("CPA %+v", *p.CPA)
	case p.CPR != nil:
		return fmt.Sprintf("CPR %+v", *p.CPR)
	case p.TD != nil:
		return fmt.Sprintf("TD %+v", *p.TD)
	case p.ARP != nil:
		return fmt.Sprintf("ARP %+v", *p.ARP)
	}
	return "empty PPDU"
}

// FuzzDecode runs checkDecode on arbitrary input. Its seeds, in
// testdata/fuzz/FuzzDecode, are the encodings of appendCorpus.
func FuzzDecode(f *testing.F) {
	f.Fuzz(checkDecode)
}

// TestDecodeMatchesSchema is FuzzDecode's check on a seeded sample that
// tier-1 runs without -fuzz: random PPDUs, each decoded as encoded and
// then after a few random byte mutations.
func TestDecodeMatchesSchema(t *testing.T) {
	ppdus, mutants := 20000, 8
	if testing.Short() {
		ppdus = 2000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < ppdus; i++ {
		p := randPPDU(rng)
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

func randPPDU(rng *rand.Rand) *PPDU {
	switch rng.Intn(5) {
	case 0:
		cp := &CP{CallingSelector: randStr(rng), CalledSelector: randStr(rng),
			UserData: randUserData(rng)}
		for n := rng.Intn(4); n > 0; n-- {
			cp.Contexts = append(cp.Contexts, Context{ID: randInt(rng), AbstractSyntax: randStr(rng)})
		}
		return &PPDU{CP: cp}
	case 1:
		cpa := &CPA{UserData: randUserData(rng)}
		for n := rng.Intn(4); n > 0; n-- {
			cpa.Results = append(cpa.Results, Result{ID: randInt(rng), Accepted: rng.Intn(2) == 0})
		}
		return &PPDU{CPA: cpa}
	case 2:
		return &PPDU{CPR: &CPR{Reason: randStr(rng)}}
	case 3:
		return &PPDU{TD: &TD{ContextID: randInt(rng), Data: []byte(randStr(rng))}}
	default:
		return &PPDU{ARP: &ARP{Reason: randStr(rng)}}
	}
}

// randInt favours the encodings' edges: zero, one-octet values of either
// sign, and full-width values.
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

// randUserData is absent (nil) or present, possibly empty.
func randUserData(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		return nil
	}
	return []byte(randStr(rng))
}

// TestPPDUDecodeAllocs is the allocation guard of the typed decoder on the
// data path every in-association message crosses: a TD is one object, its
// Data aliasing the input.
func TestPPDUDecodeAllocs(t *testing.T) {
	enc, err := (&PPDU{TD: &TD{ContextID: 1, Data: []byte("payload-bytes")}}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("TD Decode allocates %.1f times, want 1", allocs)
	}
}
