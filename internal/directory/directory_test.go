package directory

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestParseDN(t *testing.T) {
	dn, err := ParseDN("c=DE/o=uni-mannheim/cn=movies")
	if err != nil {
		t.Fatal(err)
	}
	if len(dn) != 3 || dn[2].Attr != "cn" || dn[2].Value != "movies" {
		t.Errorf("dn = %v", dn)
	}
	if dn.String() != "c=DE/o=uni-mannheim/cn=movies" {
		t.Errorf("String = %q", dn.String())
	}
	if empty, err := ParseDN(""); err != nil || empty != nil {
		t.Errorf("empty DN = %v, %v", empty, err)
	}
	for _, bad := range []string{"nomatch", "=v", "a=", "a=b//c=d"} {
		if _, err := ParseDN(bad); err == nil {
			t.Errorf("ParseDN(%q) accepted", bad)
		}
	}
}

func TestDNRelations(t *testing.T) {
	base := MustParseDN("c=DE/o=uni")
	child := base.Child("cn", "movies")
	if !child.HasPrefix(base) || base.HasPrefix(child) {
		t.Error("prefix relation wrong")
	}
	if !child.Parent().Equal(base) {
		t.Error("parent wrong")
	}
	if !base.Equal(MustParseDN("c=DE/o=uni")) {
		t.Error("Equal wrong")
	}
	if base.Equal(MustParseDN("c=DE")) {
		t.Error("Equal on different lengths")
	}
}

func newMovieDSA(t *testing.T) *DSA {
	t.Helper()
	ctx := MustParseDN("c=DE/o=uni")
	d := NewDSA("dsa-1", ctx)
	dua := NewDUA(d)
	for i, title := range []string{"casablanca", "metropolis", "nosferatu"} {
		e := &Entry{
			DN: ctx.Child("cn", title),
			Attrs: map[string][]string{
				"objectClass": {"movie"},
				"title":       {title},
				"format":      {"M-JPEG"},
				"year":        {fmt.Sprintf("%d", 1920+i*10)},
			},
		}
		if err := dua.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestDSAReadAddRemove(t *testing.T) {
	d := newMovieDSA(t)
	dua := NewDUA(d)
	e, err := dua.Read(MustParseDN("c=DE/o=uni/cn=casablanca"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Get("title") != "casablanca" {
		t.Errorf("title = %q", e.Get("title"))
	}
	if _, err := dua.Read(MustParseDN("c=DE/o=uni/cn=missing")); !errors.Is(err, ErrNoSuchEntry) {
		t.Errorf("read missing = %v", err)
	}
	// Duplicate add.
	err = dua.Add(&Entry{DN: e.DN, Attrs: map[string][]string{}})
	if !errors.Is(err, ErrEntryExists) {
		t.Errorf("duplicate add = %v", err)
	}
	// Orphan add.
	err = dua.Add(&Entry{DN: MustParseDN("c=DE/o=uni/ou=x/cn=orphan")})
	if !errors.Is(err, ErrNoSuchEntry) {
		t.Errorf("orphan add = %v", err)
	}
	if err := dua.Remove(e.DN); err != nil {
		t.Fatal(err)
	}
	if _, err := dua.Read(e.DN); !errors.Is(err, ErrNoSuchEntry) {
		t.Error("entry survived remove")
	}
	// Removing an entry with children fails.
	if err := dua.Remove(MustParseDN("c=DE/o=uni")); err == nil {
		t.Error("removed naming context with children")
	}
}

func TestRemoveRefusals(t *testing.T) {
	ctx := MustParseDN("c=DE/o=uni")
	d := NewDSA("dsa-1", ctx)
	dua := NewDUA(d)
	// An empty naming context is still the DSA's root: removing it would
	// refuse every later Add under it.
	if err := dua.Remove(ctx); !errors.Is(err, ErrIsContext) {
		t.Fatalf("remove empty context = %v, want ErrIsContext", err)
	}
	if err := dua.Add(&Entry{DN: ctx}); !errors.Is(err, ErrEntryExists) {
		t.Errorf("re-add context = %v, want ErrEntryExists", err)
	}
	series := ctx.Child("ou", "series")
	if err := dua.Add(&Entry{DN: series}); err != nil {
		t.Fatalf("add under context after refused remove: %v", err)
	}
	episode := series.Child("cn", "ep1")
	if err := dua.Add(&Entry{DN: episode}); err != nil {
		t.Fatal(err)
	}
	if err := dua.Remove(series); !errors.Is(err, ErrHasChildren) {
		t.Errorf("remove non-leaf = %v, want ErrHasChildren", err)
	}
	if err := dua.Remove(episode); err != nil {
		t.Fatal(err)
	}
	if err := dua.Remove(series); err != nil {
		t.Errorf("remove emptied entry = %v", err)
	}
}

func TestDSASearchScopes(t *testing.T) {
	d := newMovieDSA(t)
	dua := NewDUA(d)
	base := MustParseDN("c=DE/o=uni")

	subtree, err := dua.Search(base, ScopeSubtree, Eq("objectClass", "movie"))
	if err != nil {
		t.Fatal(err)
	}
	if len(subtree) != 3 {
		t.Errorf("subtree found %d", len(subtree))
	}
	one, err := dua.Search(base, ScopeOneLevel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 3 {
		t.Errorf("one-level found %d (naming context must be excluded)", len(one))
	}
	self, err := dua.Search(base, ScopeBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(self) != 1 || !self[0].DN.Equal(base) {
		t.Errorf("base scope = %v", self)
	}
}

func TestFilters(t *testing.T) {
	d := newMovieDSA(t)
	dua := NewDUA(d)
	base := MustParseDN("c=DE/o=uni")
	tests := []struct {
		name   string
		filter Filter
		want   int
	}{
		{"eq year", Eq("year", "1920"), 1},
		{"contains", Contains("title", "os"), 1}, // nosferatu
		{"present", Present("format"), 3},
		{"and", And(Eq("format", "M-JPEG"), Eq("year", "1930")), 1},
		{"or", Or(Eq("year", "1920"), Eq("year", "1930")), 2},
		{"not", And(Eq("objectClass", "movie"), Not(Eq("year", "1920"))), 2},
		{"none", Eq("year", "2001"), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := dua.Search(base, ScopeSubtree, tt.filter)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tt.want {
				t.Errorf("found %d, want %d", len(got), tt.want)
			}
		})
	}
}

func TestModify(t *testing.T) {
	d := newMovieDSA(t)
	dua := NewDUA(d)
	dn := MustParseDN("c=DE/o=uni/cn=metropolis")
	err := dua.Modify(dn, map[string][]string{"director": {"Fritz Lang"}}, []string{"format"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := dua.Read(dn)
	if err != nil {
		t.Fatal(err)
	}
	if e.Get("director") != "Fritz Lang" {
		t.Errorf("director = %q", e.Get("director"))
	}
	if _, ok := e.Attrs["format"]; ok {
		t.Error("format not deleted")
	}
	if err := dua.Modify(MustParseDN("c=DE/o=uni/cn=x"), nil, nil); !errors.Is(err, ErrNoSuchEntry) {
		t.Errorf("modify missing = %v", err)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := newMovieDSA(t)
	dua := NewDUA(d)
	dn := MustParseDN("c=DE/o=uni/cn=casablanca")
	a, _ := dua.Read(dn)
	a.Attrs["title"][0] = "MUTATED"
	b, _ := dua.Read(dn)
	if b.Get("title") != "casablanca" {
		t.Error("Read leaked internal state")
	}
}

// buildFederation wires three DSAs: root (c=DE), uni (c=DE/o=uni) and
// filmarchiv (c=DE/o=archiv), testing up- and down-chaining.
func buildFederation(t *testing.T) (*DSA, *DSA, *DSA) {
	t.Helper()
	root := NewDSA("root", MustParseDN("c=DE"))
	uni := NewDSA("uni", MustParseDN("c=DE/o=uni"))
	archiv := NewDSA("archiv", MustParseDN("c=DE/o=archiv"))
	if err := root.AddSubordinate(uni.Context(), uni); err != nil {
		t.Fatal(err)
	}
	if err := root.AddSubordinate(archiv.Context(), archiv); err != nil {
		t.Fatal(err)
	}
	uni.SetSuperior(root)
	archiv.SetSuperior(root)
	NewDUA(uni).Add(&Entry{
		DN:    MustParseDN("c=DE/o=uni/cn=xmovie-demo"),
		Attrs: map[string][]string{"objectClass": {"movie"}, "format": {"XMovie-Raw"}},
	})
	NewDUA(archiv).Add(&Entry{
		DN:    MustParseDN("c=DE/o=archiv/cn=nosferatu"),
		Attrs: map[string][]string{"objectClass": {"movie"}, "format": {"M-JPEG"}},
	})
	return root, uni, archiv
}

func TestChainingAcrossDSAs(t *testing.T) {
	_, uni, archiv := buildFederation(t)
	// A DUA homed at uni reads an entry mastered by archiv: the request
	// chains up to root and down to archiv.
	dua := NewDUA(uni)
	e, err := dua.Read(MustParseDN("c=DE/o=archiv/cn=nosferatu"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Get("format") != "M-JPEG" {
		t.Errorf("format = %q", e.Get("format"))
	}
	// And the reverse direction.
	e, err = NewDUA(archiv).Read(MustParseDN("c=DE/o=uni/cn=xmovie-demo"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Get("format") != "XMovie-Raw" {
		t.Errorf("format = %q", e.Get("format"))
	}
}

func TestSubtreeSearchSpansFederation(t *testing.T) {
	root, _, _ := buildFederation(t)
	got, err := NewDUA(root).Search(MustParseDN("c=DE"), ScopeSubtree, Eq("objectClass", "movie"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("federated search found %d, want 2: %v", len(got), got)
	}
	// Results are sorted by DN.
	if got[0].DN.String() > got[1].DN.String() {
		t.Error("results not sorted")
	}
}

func TestWriteThroughChaining(t *testing.T) {
	_, uni, _ := buildFederation(t)
	dua := NewDUA(uni) // homed at uni, writing into archiv's context
	dn := MustParseDN("c=DE/o=archiv/cn=metropolis")
	if err := dua.Add(&Entry{DN: dn, Attrs: map[string][]string{"objectClass": {"movie"}}}); err != nil {
		t.Fatal(err)
	}
	if err := dua.Modify(dn, map[string][]string{"year": {"1927"}}, nil); err != nil {
		t.Fatal(err)
	}
	e, err := dua.Read(dn)
	if err != nil || e.Get("year") != "1927" {
		t.Fatalf("read-back = %v, %v", e, err)
	}
	if err := dua.Remove(dn); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownContextFails(t *testing.T) {
	uni := NewDSA("uni", MustParseDN("c=DE/o=uni"))
	_, err := NewDUA(uni).Read(MustParseDN("c=FR/cn=x"))
	if !errors.Is(err, ErrNoSuchContext) {
		t.Errorf("err = %v", err)
	}
}

func TestChainingLoopDetected(t *testing.T) {
	// Two DSAs pointing at each other as superiors, neither mastering the
	// name: the hop counter must stop the loop.
	a := NewDSA("a", MustParseDN("c=A"))
	b := NewDSA("b", MustParseDN("c=B"))
	a.SetSuperior(b)
	b.SetSuperior(a)
	_, err := NewDUA(a).Read(MustParseDN("c=C/cn=x"))
	if !errors.Is(err, ErrLoopDetected) {
		t.Errorf("err = %v", err)
	}
}

func TestDNPrefixPropertyQuick(t *testing.T) {
	f := func(a, b uint8) bool {
		// Build DNs of length a%5 and extend by b%5 components.
		base := DN{}
		for i := 0; i < int(a%5); i++ {
			base = base.Child("o", fmt.Sprintf("x%d", i))
		}
		ext := base
		for i := 0; i < int(b%5); i++ {
			ext = ext.Child("cn", fmt.Sprintf("y%d", i))
		}
		return ext.HasPrefix(base) && (len(ext) == len(base) || !base.HasPrefix(ext))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDSAConcurrentSessions drives the striped entry map from many
// goroutines the way MCAM server sessions do (mirror attributes on create,
// read and search while browsing). `go test -race` is the real assertion;
// the final state check catches lost updates.
func TestDSAConcurrentSessions(t *testing.T) {
	d := NewDSA("load", MustParseDN("c=DE/o=uni"))
	dua := NewDUA(d)
	const workers = 32
	const perWorker = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dn := MustParseDN(fmt.Sprintf("c=DE/o=uni/cn=w%02d-m%02d", w, i))
				if err := dua.Add(&Entry{DN: dn, Attrs: map[string][]string{
					"objectClass": {"movie"},
					"title":       {dn[len(dn)-1].Value},
				}}); err != nil {
					errs[w] = err
					return
				}
				if err := dua.Modify(dn, map[string][]string{"year": {"1994"}}, nil); err != nil {
					errs[w] = err
					return
				}
				if e, err := dua.Read(dn); err != nil || e.Get("year") != "1994" {
					errs[w] = fmt.Errorf("read %s = %v, %v", dn, e, err)
					return
				}
				if _, err := dua.Search(MustParseDN("c=DE/o=uni"), ScopeSubtree, Eq("objectClass", "movie")); err != nil {
					errs[w] = err
					return
				}
				if i%4 == 3 {
					if err := dua.Remove(dn); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	got, err := dua.Search(MustParseDN("c=DE/o=uni"), ScopeSubtree, Eq("objectClass", "movie"))
	if err != nil {
		t.Fatal(err)
	}
	want := workers * perWorker * 3 / 4
	if len(got) != want {
		t.Errorf("surviving entries = %d, want %d", len(got), want)
	}
}
