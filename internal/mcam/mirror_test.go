package mcam

import (
	"fmt"
	"sync"
	"testing"

	"xmovie/internal/moviedb"
)

// TestModifyRecreatesMissingDirectoryEntry modifies a movie the directory
// has no entry for: the mirror adds one, with its objectClass, and a later
// empty value deletes the key from it.
func TestModifyRecreatesMissingDirectoryEntry(t *testing.T) {
	env, _ := newTestEnv(t)
	h := newHandler(env, nil, func(Event) {})
	defer h.close()
	dn := h.movieDN("movie-0")
	if _, err := env.DUA.Read(dn); err == nil {
		t.Fatal("seeded movie already has a directory entry; the test needs none")
	}
	resp := h.execute(&Request{Op: OpModifyAttributes, Movie: "movie-0",
		Attrs: []Attr{{Name: "year", Value: "1942"}, {Name: "title", Value: ""}}})
	if !resp.OK() {
		t.Fatalf("modify = %+v", resp)
	}
	e, err := env.DUA.Read(dn)
	if err != nil {
		t.Fatalf("modify left no directory entry: %v", err)
	}
	if e.Get("objectClass") != "movie" || e.Get("year") != "1942" {
		t.Fatalf("recreated entry = %v", e.Attrs)
	}
	if _, ok := e.Attrs["title"]; ok {
		t.Fatalf("an empty value was mirrored as a key: %v", e.Attrs)
	}
	resp = h.execute(&Request{Op: OpModifyAttributes, Movie: "movie-0",
		Attrs: []Attr{{Name: "year", Value: ""}, {Name: "director", Value: "curtiz"}}})
	if !resp.OK() {
		t.Fatalf("second modify = %+v", resp)
	}
	if e, err = env.DUA.Read(dn); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Attrs["year"]; ok || e.Get("director") != "curtiz" || e.Get("objectClass") != "movie" {
		t.Fatalf("entry after deleting year = %v", e.Attrs)
	}
}

// TestMirrorAddRaceConsistent lets creates and modifies of one movie race
// to make its missing directory entry: every mirror succeeds — an add that
// loses to another falls back to a modify — and the entry ends holding
// the objectClass and every writer's key.
func TestMirrorAddRaceConsistent(t *testing.T) {
	env, _ := newTestEnv(t)
	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := newHandler(env, nil, func(Event) {})
			defer h.close()
			attrs := moviedb.Attributes{fmt.Sprintf("k%02d", i): "v"}
			<-start
			errs <- h.mirrorToDirectory("raced", attrs, i%2 == 0)
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("racing mirror: %v", err)
		}
	}
	h := newHandler(env, nil, func(Event) {})
	defer h.close()
	e, err := env.DUA.Read(h.movieDN("raced"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Get("objectClass") != "movie" || len(e.Attrs) != writers+1 {
		t.Fatalf("entry after the race = %v", e.Attrs)
	}
	for i := 0; i < writers; i++ {
		if e.Get(fmt.Sprintf("k%02d", i)) != "v" {
			t.Fatalf("entry after the race lost writer %d: %v", i, e.Attrs)
		}
	}
}
