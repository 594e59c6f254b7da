package main

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestHistQuantileError checks the histogram's promise: any quantile it
// returns is within 1% of the exact sample quantile, over six decades.
func TestHistQuantileError(t *testing.T) {
	r := newRNG(42, 0)
	var h hist
	var exact []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform between 100 ns and 100 ms, like latencies are.
		v := int64(100 * math.Pow(10, 6*float64(r.next()>>11)/float64(1<<53)))
		h.record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		got := h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%v: histogram %.1f, exact %.1f, error %.2f%% > 1%%", q, got, want, 100*rel)
		}
	}
}

// TestHistBuckets checks that bucket indexes are monotone and contiguous
// across the exact/logarithmic seam and every octave boundary, and that a
// bucket's midpoint lies in the bucket.
func TestHistBuckets(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 254, 255, 256, 257, 511, 512, 513, 1023, 1024, 1 << 20, 1<<20 + 1<<13, 1 << 40} {
		idx := histIndex(v)
		if idx < prev {
			t.Errorf("histIndex(%d) = %d, below the previous value's %d", v, idx, prev)
		}
		prev = idx
		if mid := histValue(idx); math.Abs(mid-float64(v)) > 0.005*float64(v)+0.5 {
			t.Errorf("value %d: bucket %d has midpoint %.1f, more than 0.5%% off", v, idx, mid)
		}
	}
	for v := int64(1); v < 5000; v++ {
		if d := histIndex(v) - histIndex(v-1); d < 0 || d > 1 {
			t.Fatalf("bucket index jumps by %d between %d and %d", d, v-1, v)
		}
	}
	var a, b hist
	a.record(100)
	b.record(300)
	b.record(500)
	a.merge(&b)
	if a.n != 3 || a.quantile(0.5) != 301 {
		t.Errorf("merge: n=%d median=%v, want 3 and 301", a.n, a.quantile(0.5))
	}
}

// TestSelfTimes checks the span arithmetic: a span's self time is its
// duration minus its children's, self times over a tree add up to the
// root's duration, and children that exceed their parent are reported.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(16)
	root := tr.add("core.call", "select", -1, 1000, 11000)
	codec := tr.add("mcam.pdu_decode", "select", root, 20000, 23000)
	tr.add("asn1.leaf", "select", codec, 30000, 31000)
	tr.add("moviedb.op", "select", root, 40000, 42500)
	other := tr.add("core.call", "query", -1, 50000, 52000)

	self, negative := selfTimes(tr.spans)
	if negative != 0 {
		t.Fatalf("%d negative self times in a consistent tree", negative)
	}
	want := []int64{10000 - 3000 - 2500, 3000 - 1000, 1000, 2500, 2000}
	var sum int64
	for i, v := range self {
		if v != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, tr.spans[i].Name, v, want[i])
		}
		if i != int(other) {
			sum += v
		}
	}
	if rootDur := tr.spans[root].dur(); sum != rootDur {
		t.Errorf("self times of the tree add up to %d, the root lasted %d", sum, rootDur)
	}

	tr.add("presentation.ppdu_decode", "query", other, 60000, 62001)
	if self, negative := selfTimes(tr.spans); negative != 1 || self[other] != -1 {
		t.Errorf("children 1 ns longer than their parent: %d negative, self %d; want 1, -1", negative, self[other])
	}
}

// TestMergeTracersRebasesParents checks that span trees survive merging
// per-goroutine buffers.
func TestMergeTracersRebasesParents(t *testing.T) {
	a, b := newTracer(4), newTracer(4)
	a.add("core.call", "x", -1, 0, 10)
	rb := b.add("core.call", "y", -1, 0, 10)
	b.add("mcam.pdu_append", "y", rb, 20, 24)
	all, dropped := mergeTracers(a, nil, b)
	if dropped != 0 || len(all) != 3 {
		t.Fatalf("merged %d spans, %d dropped", len(all), dropped)
	}
	if all[2].Parent != 1 || all[1].Parent != -1 {
		t.Errorf("parents after merge: %d, %d; want -1, 1", all[1].Parent, all[2].Parent)
	}
	full := newTracer(1)
	full.add("a", "", -1, 0, 1)
	if id := full.add("b", "", -1, 0, 1); id != -1 || full.dropped != 1 || len(full.spans) != 1 {
		t.Errorf("a full tracer grew: id %d, dropped %d, %d spans", id, full.dropped, len(full.spans))
	}
}

// TestGeneratorIsDeterministic checks that a seed fixes the catalogue and
// every association's op sequence, and that another seed changes them.
func TestGeneratorIsDeterministic(t *testing.T) {
	cat1, cat2, cat3 := genCatalogue(7, catalogueSize), genCatalogue(7, catalogueSize), genCatalogue(8, catalogueSize)
	for i := range cat1 {
		if cat1[i].name != cat2[i].name || cat1[i].frames != cat2[i].frames || !sameAttrs(cat1[i].attrs, cat2[i].attrs) {
			t.Fatalf("catalogue entry %d differs between two runs of seed 7", i)
		}
	}
	if cat1[0].name == cat3[0].name {
		t.Error("seeds 7 and 8 name their movies alike")
	}
	if !sort.SliceIsSorted(cat1, func(i, j int) bool { return cat1[i].name < cat1[j].name }) {
		t.Error("catalogue order is not List order")
	}
	s1, s2 := genScript(7, 1, cat1), genScript(7, 1, cat2)
	other, otherSeed := genScript(7, 0, cat1), genScript(8, 1, cat3)
	same := func(a, b []cycleSpec) bool {
		for k := 0; k < 3*scriptLen; k++ {
			opA, csA := opAt(a, k)
			opB, csB := opAt(b, k)
			if opA != opB || csA != csB {
				return false
			}
		}
		return true
	}
	if !same(s1, s2) {
		t.Error("seed 7 gave association 1 two different op sequences")
	}
	if same(s1, other) || same(s1, otherSeed) {
		t.Error("another association or seed repeats association 1's sequence")
	}
}

// TestOpSequenceShape checks the cycle the issue specifies: eight steps in
// order, one List after every 64th cycle, positions inside the movie.
func TestOpSequenceShape(t *testing.T) {
	cat := genCatalogue(1, catalogueSize)
	script := genScript(1, 0, cat)
	want := []ctlOp{opSelect, opQuerySelected, opSeek, opDeselect, opCreate, opModify, opQueryPrivate, opDelete}
	k, lists := 0, 0
	for cycle := 0; cycle < 3*listEvery; cycle++ {
		var first cycleSpec
		for step, w := range want {
			op, cs := opAt(script, k)
			k++
			if op != w {
				t.Fatalf("cycle %d step %d is %s, want %s", cycle, step, ctlOpNames[op], ctlOpNames[w])
			}
			if step == 0 {
				first = cs
			} else if cs != first {
				t.Fatalf("cycle %d changes its parameters at step %d", cycle, step)
			}
			if int(cs.pos) > cat[cs.movie].frames {
				t.Fatalf("cycle %d seeks to %d in a movie of %d frames", cycle, cs.pos, cat[cs.movie].frames)
			}
		}
		if (cycle+1)%listEvery == 0 {
			if op, _ := opAt(script, k); op != opList {
				t.Fatalf("no List after cycle %d", cycle)
			}
			k++
			lists++
		}
	}
	if lists != 3 {
		t.Errorf("%d Lists in %d cycles, want 3", lists, 3*listEvery)
	}
}

// TestQuartileSpread pins the spread to Python's statistics.quantiles
// (n=4, exclusive method), which the benchmark's acceptance is stated in.
func TestQuartileSpread(t *testing.T) {
	vs := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	// statistics.quantiles(vs, n=4) == [11.75, 14.5, 17.25]
	if got, want := quartileSpread(vs), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	if worsening(100, 110, "lower") != 0.1 || worsening(100, 90, "higher") != 0.1 || worsening(100, 90, "lower") != -0.1 {
		t.Error("worsening does not follow the metric's direction")
	}
}

// TestMedianRound checks the reduction of rounds to a run's figure: the
// median of the rounds marked undisturbed.
func TestMedianRound(t *testing.T) {
	vs := []float64{80, 81, 55, 79, 80, 60, 82, 80, 79, 81}
	ok := []bool{false, false, true, false, false, true, false, false, true, true}
	if got := medianRound(vs, ok); got != 69.5 {
		t.Errorf("median of the four undisturbed rounds: %v, want 69.5", got)
	}
	if got := medianRound(nil, nil); got != 0 {
		t.Errorf("no rounds: %v, want 0", got)
	}
}

// TestUndisturbed checks that the steal column is found in /proc/stat's
// first line, that a round counts as disturbed above maxStolen of its
// capacity, and that the least disturbed tenth is kept whatever the host did.
func TestUndisturbed(t *testing.T) {
	line := []byte("cpu  2598477 13118 723656 11187233 107279 0 262342 66860 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if got := parseSteal(line); got != 66860 {
		t.Errorf("steal ticks %d, want 66860", got)
	}
	if got := parseSteal([]byte("cpu 1 2 3\n")); got != 0 {
		t.Errorf("short line: %d, want 0", got)
	}
	round := 250 * time.Millisecond
	limit := time.Duration(maxStolen * float64(round) * float64(runtime.NumCPU()))
	big := 2*limit + stealTick
	// Twenty rounds: round 8 is a little less disturbed than the rest, and
	// the rounds in quiet are not disturbed at all.
	readings := func(quiet ...int) []time.Duration {
		steal := []time.Duration{0}
		for r := 0; r < 20; r++ {
			d := big
			if r == 8 {
				d = big - time.Millisecond
			}
			for _, q := range quiet {
				if r == q {
					d = limit
				}
			}
			steal = append(steal, steal[r]+d)
		}
		return steal
	}
	for r, v := range undisturbed(readings(3, 17), round) {
		if want := r == 3 || r == 17; v != want {
			t.Errorf("two quiet rounds: round %d marked %v, want %v", r, v, want)
		}
	}
	for r, v := range undisturbed(readings(3), round) {
		if want := r == 3 || r == 8; v != want {
			t.Errorf("one quiet round: round %d marked %v, want %v", r, v, want)
		}
	}
}
