package main

import (
	"fmt"

	"xmovie/internal/mcam"
)

// rng is splitmix64: every input the server sees is a pure function of
// --seed, so two runs with one seed issue the same requests in the same
// order on every association.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// catMovie is one seeded catalogue entry and the answers the output check
// expects for it.
type catMovie struct {
	name   string
	frames int
	rate   int
	attrs  []mcam.Attr // sorted by name, as Query returns them
}

const catalogueSize = 1024

var (
	directors = []string{"Keller", "Fischer", "Effelsberg", "Lamparter", "Mayer", "Hofmann", "Bauer", "Meyer"}
	locations = []string{"mannheim", "bern", "stuttgart", "heidelberg"}
)

// genCatalogue derives n browse-only movies from seed. Names are
// zero-padded, so catalogue order is List order.
func genCatalogue(seed int64, n int) []catMovie {
	r := newRNG(seed, 0)
	tag := r.next() & 0xfffff
	out := make([]catMovie, n)
	for i := range out {
		name := fmt.Sprintf("mv-%05x-%04d", tag, i)
		out[i] = catMovie{
			name:   name,
			frames: 50 + r.intn(950),
			rate:   []int{15, 24, 25, 30}[r.intn(4)],
			attrs: []mcam.Attr{
				{Name: "director", Value: directors[r.intn(len(directors))]},
				{Name: "location", Value: locations[r.intn(len(locations))]},
				{Name: "title", Value: fmt.Sprintf("Title %x", r.next()&0xffffff)},
				{Name: "year", Value: fmt.Sprint(1985 + r.intn(10))},
			},
		}
	}
	return out
}

// ctlOp is one step of the control cycle.
type ctlOp uint8

const (
	opSelect ctlOp = iota
	opQuerySelected
	opSeek
	opDeselect
	opCreate
	opModify
	opQueryPrivate
	opDelete
	opList
	numCtlOps
)

var ctlOpNames = [numCtlOps]string{"select", "query", "seek", "deselect", "create", "modify", "query-private", "delete", "list"}

// cycleLen is the number of steps in one control cycle (List rides on
// every listEvery-th cycle as a ninth step).
const (
	cycleLen  = 8
	listEvery = 64
)

// cycleSpec parameterises one control cycle: which catalogue movie is
// browsed, where the seek lands, and which private movie is written.
type cycleSpec struct {
	movie uint16
	priv  uint8
	pos   int32
}

const (
	scriptLen    = 4096 // cycles before an association's script repeats
	privatePerAs = 64   // private movie names per association
)

// genScript derives association a's cycle parameters from seed.
func genScript(seed int64, a int, cat []catMovie) []cycleSpec {
	r := newRNG(seed, uint64(1000+a))
	out := make([]cycleSpec, scriptLen)
	for i := range out {
		m := r.intn(len(cat))
		out[i] = cycleSpec{
			movie: uint16(m),
			priv:  uint8(r.intn(privatePerAs)),
			pos:   int32(r.intn(cat[m].frames + 1)),
		}
	}
	return out
}

// opAt expands a script into the flat operation sequence the closed loop
// issues: op number k of an association is (step, cycle parameters).
func opAt(script []cycleSpec, k int) (ctlOp, cycleSpec) {
	// Every listEvery-th cycle has one extra step.
	const block = listEvery*cycleLen + 1
	b, off := k/block, k%block
	cycle := b * listEvery
	if off == block-1 {
		return opList, script[(cycle+listEvery-1)%len(script)]
	}
	cycle += off / cycleLen
	return ctlOp(off % cycleLen), script[cycle%len(script)]
}

// privateName is the k-th private movie of association a. The "zz-"
// prefix sorts after every seeded name, so a List reply is the seeded
// catalogue followed by whatever private movies exist at that instant.
func privateName(a, k int) string { return fmt.Sprintf("zz-%02d-%02d", a, k) }

const privatePrefix = "zz-"

// Attributes the cycle writes; the read-your-writes check expects
// privateAfterModify from the Query that follows the Modify.
var (
	privateCreateAttrs = []mcam.Attr{
		{Name: "director", Value: "harness"},
		{Name: "title", Value: "scratch"},
		{Name: "year", Value: "1994"},
	}
	privateModifyAttrs = []mcam.Attr{
		{Name: "location", Value: "bench"},
		{Name: "title", Value: "scratch-2"},
		{Name: "year", Value: ""}, // an empty value deletes the key
	}
	privateAfterModify = []mcam.Attr{
		{Name: "director", Value: "harness"},
		{Name: "location", Value: "bench"},
		{Name: "title", Value: "scratch-2"},
	}
)
