package directory

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkIndex recounts the DIT by brute force and requires the child index
// to agree with it: every entry but the naming context has its parent
// present (no orphans) and is in that parent's index, and every index holds
// exactly the live entries one level below its owner.
func checkIndex(t *testing.T, d *DSA) {
	t.Helper()
	all := make(map[string]*node)
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.RLock()
		for k, n := range st.entries {
			all[k] = n
		}
		st.mu.RUnlock()
	}
	want := make(map[*node]int)
	for k, n := range all {
		if n.gone || n.key != k || n.stripe != stripeFor(k) || n.entry.DN.String() != k {
			t.Errorf("entry %q: bad node (gone=%v key=%q stripe=%d)", k, n.gone, n.key, n.stripe)
		}
		if n.entry.DN.Equal(d.context) {
			continue
		}
		p, ok := all[n.entry.DN.Parent().String()]
		if !ok {
			t.Errorf("orphan %s", k)
			continue
		}
		if _, ok := p.children[n]; !ok {
			t.Errorf("%s missing from its parent's index", k)
		}
		want[p]++
	}
	for k, n := range all {
		if len(n.children) != want[n] {
			t.Errorf("%s indexes %d children, the DIT has %d", k, len(n.children), want[n])
		}
	}
}

// TestRemoveRacesAddUnderIt has goroutines add children under X while
// others remove and re-add X. Under -race it checks what the child index
// and the two-stripe locking guarantee: an Add never succeeds under an
// absent parent, a Remove never succeeds while X has a child, and the index
// ends equal to a recount.
func TestRemoveRacesAddUnderIt(t *testing.T) {
	ctx := MustParseDN("c=DE/o=uni")
	d := NewDSA("race", ctx)
	x := ctx.Child("ou", "x")
	const adders, removers, rounds = 2, 2, 400
	var childAdds, xRemoves atomic.Int64
	var wg sync.WaitGroup
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			child := x.Child("cn", fmt.Sprintf("m%d", a))
			for i := 0; i < rounds; i++ {
				err := d.Add(&Entry{DN: child}, 0)
				if errors.Is(err, ErrNoSuchEntry) {
					continue // X absent: refused, as it must be
				}
				if err != nil {
					t.Errorf("add %s: %v", child, err)
					return
				}
				childAdds.Add(1)
				// Only this goroutine removes its child, so X cannot
				// disappear until it does.
				if _, err := d.Read(x, 0); err != nil {
					t.Errorf("X gone while %s exists: %v", child, err)
					return
				}
				if err := d.Remove(child, 0); err != nil {
					t.Errorf("remove %s: %v", child, err)
					return
				}
			}
		}(a)
	}
	for r := 0; r < removers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := d.Add(&Entry{DN: x}, 0); err != nil && !errors.Is(err, ErrEntryExists) {
					t.Errorf("add X: %v", err)
					return
				}
				switch err := d.Remove(x, 0); {
				case err == nil:
					xRemoves.Add(1)
				case errors.Is(err, ErrHasChildren), errors.Is(err, ErrNoSuchEntry):
				default:
					t.Errorf("remove X: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkIndex(t, d)
	t.Logf("%d child adds, %d removes of X", childAdds.Load(), xRemoves.Load())
}

// TestRemoveLocksOnlyEntryAndParentStripes holds every other stripe
// write-locked: Add and Remove must still complete, so neither takes a
// DSA-wide lock.
func TestRemoveLocksOnlyEntryAndParentStripes(t *testing.T) {
	ctx := MustParseDN("c=DE/o=uni")
	d := NewDSA("locks", ctx)
	dn := ctx.Child("cn", "casablanca")
	ti, pi := stripeFor(dn.String()), stripeFor(ctx.String())
	for i := range d.stripes {
		if i != ti && i != pi {
			d.stripes[i].mu.Lock()
			defer d.stripes[i].mu.Unlock()
		}
	}
	done := make(chan error, 1)
	go func() {
		if err := d.Add(&Entry{DN: dn}, 0); err != nil {
			done <- err
			return
		}
		done <- d.Remove(dn, 0)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Add/Remove blocked on a stripe other than the entry's and its parent's")
	}
}

// scanSearch is the index-free reference for Search: every entry of every
// DSA tested against the scope one by one, sorted by DN.String(). A subtree
// reaches all DSAs (chaining); the other scopes only the DSA mastering base.
func scanSearch(dsas []*DSA, base DN, scope Scope, filter Filter) []*Entry {
	if filter == nil {
		filter = All()
	}
	var out []*Entry
	var owner *DSA
	for _, d := range dsas {
		if base.HasPrefix(d.context) && (owner == nil || len(d.context) > len(owner.context)) {
			owner = d
		}
	}
	for _, d := range dsas {
		if scope != ScopeSubtree && d != owner {
			continue
		}
		for i := range d.stripes {
			for _, n := range d.stripes[i].entries {
				e := n.entry
				switch scope {
				case ScopeBase:
					if !e.DN.Equal(base) {
						continue
					}
				case ScopeOneLevel:
					if len(e.DN) != len(base)+1 || !e.DN.HasPrefix(base) {
						continue
					}
				default:
					if !e.DN.HasPrefix(base) {
						continue
					}
				}
				if filter.Match(e) {
					out = append(out, e.clone())
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DN.String() < out[j].DN.String() })
	return out
}

// trapValues are RDN values whose byte order differs from a pre-order walk:
// "x-1" and "x." sort before "x/…" and "x0" after it.
var trapValues = []string{"x", "x-1", "x.", "x0", "X", "x-1-2", "y"}

// randomFederation builds a seeded three-level DIT under c=DE/o=uni with a
// subordinate DSA mastering c=DE/o=uni/ou=sub, removes a seeded share of
// the leaves again, and returns the DSAs and every DN it added.
func randomFederation(t *testing.T, seed uint64) ([]*DSA, []DN) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 0))
	root := NewDSA("root", MustParseDN("c=DE/o=uni"))
	sub := NewDSA("sub", MustParseDN("c=DE/o=uni/ou=sub"))
	if err := root.AddSubordinate(sub.Context(), sub); err != nil {
		t.Fatal(err)
	}
	sub.SetSuperior(root)
	years := []string{"1927", "1942", "1990"}
	var dns []DN
	var grow func(parent DN, depth int)
	grow = func(parent DN, depth int) {
		if depth == 3 {
			return
		}
		for _, v := range trapValues {
			if r.IntN(3) == 0 {
				continue
			}
			dn := parent.Child("cn", v)
			attrs := map[string][]string{"objectClass": {"movie"}, "year": {years[r.IntN(len(years))]}}
			if r.IntN(2) == 0 {
				attrs["title"] = []string{v + " story"}
			}
			if err := NewDUA(root).Add(&Entry{DN: dn, Attrs: attrs}); err != nil {
				t.Fatal(err)
			}
			dns = append(dns, dn)
			grow(dn, depth+1)
		}
	}
	grow(root.Context(), 0)
	grow(sub.Context(), 1)
	// Remove leaves deepest first, so the index also sees removals.
	for i := len(dns) - 1; i >= 0; i-- {
		if r.IntN(4) == 0 {
			err := NewDUA(root).Remove(dns[i])
			if err != nil && !errors.Is(err, ErrHasChildren) {
				t.Fatal(err)
			}
		}
	}
	return []*DSA{root, sub}, dns
}

// TestSearchMatchesScan requires every scope × filter × base answer of the
// indexed Search to equal the brute-force scan, element for element and in
// order, on seeded random DITs (including bases that do not exist).
func TestSearchMatchesScan(t *testing.T) {
	filters := []Filter{nil, Eq("year", "1990"), Present("title"), Not(Eq("year", "1927")), Contains("title", "x-")}
	for seed := uint64(1); seed <= 5; seed++ {
		dsas, dns := randomFederation(t, seed)
		checkIndex(t, dsas[0])
		checkIndex(t, dsas[1])
		bases := append([]DN{dsas[0].Context(), dsas[1].Context(), dsas[0].Context().Child("cn", "absent")}, dns...)
		dua := NewDUA(dsas[0])
		for _, base := range bases {
			for _, scope := range []Scope{ScopeBase, ScopeOneLevel, ScopeSubtree} {
				for fi, f := range filters {
					got, err := dua.Search(base, scope, f)
					if err != nil {
						t.Fatal(err)
					}
					want := scanSearch(dsas, base, scope, f)
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d base %s scope %d filter %d:\n got %v\nwant %v", seed, base, scope, fi, dnStrings(got), dnStrings(want))
					}
				}
			}
		}
	}
}

func dnStrings(es []*Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.DN.String()
	}
	return out
}

// benchDSA holds n movies under c=DE/o=bench spread over 32 ou= levels,
// each with one of ten years.
func benchDSA(b *testing.B, n int) *DSA {
	b.Helper()
	d := NewDSA("bench", MustParseDN("c=DE/o=bench"))
	const groups = 32
	for g := 0; g < groups; g++ {
		if err := d.Add(&Entry{DN: d.Context().Child("ou", fmt.Sprintf("g%02d", g))}, 0); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		dn := d.Context().Child("ou", fmt.Sprintf("g%02d", i%groups)).Child("cn", fmt.Sprintf("mv-%05d", i))
		if err := d.Add(&Entry{DN: dn, Attrs: map[string][]string{
			"objectClass": {"movie"},
			"year":        {fmt.Sprint(1985 + i%10)},
		}}, 0); err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkDSARemove is one MCAM Delete's directory work, Add and Remove of
// one entry, at two catalogue sizes: flat when Remove is indexed.
func BenchmarkDSARemove(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"16k", 1 << 14}} {
		b.Run(bc.name, func(b *testing.B) {
			d := benchDSA(b, bc.n)
			e := &Entry{DN: d.Context().Child("ou", "g00").Child("cn", "scratch"),
				Attrs: map[string][]string{"objectClass": {"movie"}}}
			b.ReportAllocs()
			for b.Loop() {
				if err := d.Add(e, 0); err != nil {
					b.Fatal(err)
				}
				if err := d.Remove(e.DN, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDSASearch searches 1024 movies for one year: the whole subtree
// from the naming context, and one level below one of the 32 groups.
func BenchmarkDSASearch(b *testing.B) {
	d := benchDSA(b, 1<<10)
	filter := Eq("year", "1990")
	for _, bc := range []struct {
		name  string
		base  DN
		scope Scope
	}{
		{"subtree", d.Context(), ScopeSubtree},
		{"onelevel", d.Context().Child("ou", "g05"), ScopeOneLevel},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				hits, err := d.Search(bc.base, bc.scope, filter, 0)
				if err != nil || len(hits) == 0 {
					b.Fatalf("search = %d hits, %v", len(hits), err)
				}
			}
		})
	}
}
