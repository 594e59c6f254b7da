package moviedb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMemStoreCRUD(t *testing.T) {
	s := NewMemStore()
	m := Synthesize(SynthConfig{Name: "casablanca", Format: FormatMJPEG, Frames: 10})
	if err := s.Create(m); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(m); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create = %v", err)
	}
	got, err := s.Get("casablanca")
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != FormatMJPEG || len(got.Frames) != 10 {
		t.Errorf("got %v with %d frames", got.Format, len(got.Frames))
	}
	if got.Attrs[AttrTitle] != "casablanca" {
		t.Errorf("title attr = %q", got.Attrs[AttrTitle])
	}
	if err := s.Delete("casablanca"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("casablanca"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete = %v", err)
	}
	if err := s.Delete("casablanca"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
}

func TestCreateRejectsEmptyName(t *testing.T) {
	s := NewMemStore()
	if err := s.Create(&Movie{}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestListSorted(t *testing.T) {
	s := NewMemStore()
	MustSeed(s, "movie", 5, 2)
	got := s.List()
	want := []string{"movie-0", "movie-1", "movie-2", "movie-3", "movie-4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("List = %v", got)
	}
}

func TestSetAttrs(t *testing.T) {
	s := NewMemStore()
	MustSeed(s, "m", 1, 1)
	if err := s.SetAttrs("m-0", Attributes{AttrDirector: "Curtiz", AttrYear: ""}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("m-0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs[AttrDirector] != "Curtiz" {
		t.Errorf("director = %q", got.Attrs[AttrDirector])
	}
	if _, ok := got.Attrs[AttrYear]; ok {
		t.Error("year not deleted")
	}
	if err := s.SetAttrs("none", Attributes{"a": "b"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetAttrs on missing = %v", err)
	}
}

func TestGetReturnsAttrCopy(t *testing.T) {
	s := NewMemStore()
	MustSeed(s, "m", 1, 1)
	a, _ := s.Get("m-0")
	a.Attrs["mutation"] = "x"
	b, _ := s.Get("m-0")
	if _, ok := b.Attrs["mutation"]; ok {
		t.Error("Get leaked internal attribute map")
	}
}

func TestAppendFramesCopies(t *testing.T) {
	s := NewMemStore()
	if err := s.Create(&Movie{Name: "rec", FrameRate: 25, Attrs: Attributes{}}); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Record("rec")
	if err != nil {
		t.Fatal(err)
	}
	f := []byte{1, 2, 3}
	if _, err := rec.Append([][]byte{f}); err != nil {
		t.Fatal(err)
	}
	f[0] = 99
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("rec")
	if got.Frames[0][0] != 1 {
		t.Error("Append did not copy the frame")
	}
	if _, err := s.Record("none"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Record on missing = %v", err)
	}
}

// appendFrames appends frames to the named movie in one recording session.
func appendFrames(s Store, name string, frames [][]byte) error {
	rec, err := s.Record(name)
	if err != nil {
		return err
	}
	_, err = rec.Append(frames)
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	return err
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(SynthConfig{Name: "x", Format: FormatMPEG1, Frames: 5})
	b := Synthesize(SynthConfig{Name: "x", Format: FormatMPEG1, Frames: 5})
	for i := range a.Frames {
		if !bytes.Equal(a.Frames[i], b.Frames[i]) {
			t.Fatalf("frame %d differs between identical configs", i)
		}
	}
	c := Synthesize(SynthConfig{Name: "y", Format: FormatMPEG1, Frames: 5})
	if bytes.Equal(a.Frames[0], c.Frames[0]) {
		t.Error("different names produced identical frames")
	}
}

func TestSynthesizeSizes(t *testing.T) {
	tests := []struct {
		format Format
		want   int
	}{
		{FormatMJPEG, 8 * 1024},
		{FormatXMovieRaw, 320 * 240 / 4},
		{FormatMPEG1, 4 * 1024},
	}
	for _, tt := range tests {
		m := Synthesize(SynthConfig{Name: "t", Format: tt.format, Frames: 1})
		if len(m.Frames[0]) != tt.want {
			t.Errorf("%v frame size = %d, want %d", tt.format, len(m.Frames[0]), tt.want)
		}
	}
}

func TestDurationMillis(t *testing.T) {
	m := Synthesize(SynthConfig{Name: "d", Frames: 50, FrameRate: 25})
	if got := m.DurationMillis(); got != 2000 {
		t.Errorf("duration = %dms, want 2000", got)
	}
	empty := &Movie{}
	if empty.DurationMillis() != 0 {
		t.Error("zero-rate movie has nonzero duration")
	}
}

func TestStorePropertyQuick(t *testing.T) {
	// Creating then getting any set of uniquely named movies preserves
	// frame contents.
	f := func(names []string) bool {
		s := NewMemStore()
		seen := map[string]bool{}
		for _, n := range names {
			if n == "" || seen[n] {
				continue
			}
			seen[n] = true
			m := Synthesize(SynthConfig{Name: n, Frames: 2, FrameSize: 16})
			if err := s.Create(m); err != nil {
				return false
			}
			got, err := s.Get(n)
			if err != nil || len(got.Frames) != 2 {
				return false
			}
			if !bytes.Equal(got.Frames[0], m.Frames[0]) {
				return false
			}
		}
		return len(s.List()) == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInfoSnapshotOutlivesSetAttrs reads a movie's attribute snapshot,
// changes the attributes, and checks the snapshot still reads the old
// values while a fresh Info reads the new ones — on every store kind.
func TestInfoSnapshotOutlivesSetAttrs(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir(), DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, s := range []Store{NewMemStore(), ds, NewShardedStore(4)} {
		if err := s.Create(&Movie{Name: "m", FrameRate: 25, Frames: [][]byte{{1}, {2}},
			Attrs: Attributes{AttrYear: "1942", AttrTitle: "casablanca"}}); err != nil {
			t.Fatal(err)
		}
		old, err := s.Info("m")
		if err != nil {
			t.Fatal(err)
		}
		want := []Attr{{AttrTitle, "casablanca"}, {AttrYear, "1942"}}
		if old.Name != "m" || old.FrameRate != 25 || old.Length != 2 || !reflect.DeepEqual(old.Attrs, want) {
			t.Fatalf("%T: Info = %+v", s, old)
		}
		if err := s.SetAttrs("m", Attributes{AttrYear: "", AttrDirector: "curtiz"}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(old.Attrs, want) {
			t.Fatalf("%T: a snapshot read before SetAttrs changed to %v", s, old.Attrs)
		}
		cur, err := s.Info("m")
		if err != nil {
			t.Fatal(err)
		}
		if now := []Attr{{AttrDirector, "curtiz"}, {AttrTitle, "casablanca"}}; !reflect.DeepEqual(cur.Attrs, now) {
			t.Fatalf("%T: Info after SetAttrs = %v, want %v", s, cur.Attrs, now)
		}
		if _, err := s.Info("none"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%T: Info of a missing movie = %v", s, err)
		}
	}
}
