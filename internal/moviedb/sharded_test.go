package moviedb

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestShardedStoreBehavesLikeMemStore(t *testing.T) {
	sharded := NewShardedStore(8)
	flat := NewMemStore()
	for i := 0; i < 50; i++ {
		m := Synthesize(SynthConfig{Name: fmt.Sprintf("m-%02d", i), Frames: 3})
		if err := sharded.Create(m); err != nil {
			t.Fatal(err)
		}
		if err := flat.Create(m); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(sharded.List(), flat.List()) {
		t.Errorf("List mismatch: %v vs %v", sharded.List(), flat.List())
	}
	if err := sharded.SetAttrs("m-07", Attributes{AttrDirector: "curtiz"}); err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Get("m-07")
	if err != nil || got.Attrs[AttrDirector] != "curtiz" {
		t.Fatalf("Get after SetAttrs = %+v, %v", got, err)
	}
	if err := sharded.Delete("m-07"); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Get("m-07"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete = %v", err)
	}
	if err := sharded.Create(Synthesize(SynthConfig{Name: "m-00", Frames: 1})); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create = %v", err)
	}
}

func TestShardedStoreRoundsToPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, DefaultShards}, {1, 1}, {3, 4}, {64, 64}, {65, 128}} {
		if got := NewShardedStore(c.in).Shards(); got != c.want {
			t.Errorf("NewShardedStore(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestShardedStoreConcurrent hammers all operations from many goroutines;
// its real assertion is `go test -race` staying clean, plus the store
// holding exactly the survivors afterwards.
func TestShardedStoreConcurrent(t *testing.T) {
	s := NewShardedStore(0)
	const workers = 32
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%02d-m%02d", w, i)
				m := Synthesize(SynthConfig{Name: name, Frames: 2, FrameRate: 25})
				if err := s.Create(m); err != nil {
					errs[w] = err
					return
				}
				if err := s.SetAttrs(name, Attributes{AttrYear: "1994"}); err != nil {
					errs[w] = err
					return
				}
				if err := appendFrames(s, name, [][]byte{{1, 2, 3}}); err != nil {
					errs[w] = err
					return
				}
				if got, err := s.Get(name); err != nil || len(got.Frames) != 3 {
					errs[w] = fmt.Errorf("get %s = %+v, %v", name, got, err)
					return
				}
				s.List()
				if i%2 == 1 {
					if err := s.Delete(name); err != nil {
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
	if got, want := len(s.List()), workers*perWorker/2; got != want {
		t.Errorf("surviving movies = %d, want %d", got, want)
	}
}

// TestShardedListUnderChurn lists a sharded store — over memory and over
// disk shards — while other goroutines create and delete movies: every
// listing is sorted and duplicate-free, holds each movie present for the
// whole call, and holds no name that was never created.
func TestShardedListUnderChurn(t *testing.T) {
	for _, disk := range []bool{false, true} {
		var s *ShardedStore
		if disk {
			ds, err := OpenShardedDiskStore(t.TempDir(), 8, DiskConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			s = ds
		} else {
			s = NewShardedStore(8)
		}
		stable := map[string]bool{}
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("stable-%02d", i)
			stable[name] = true
			if err := s.Create(&Movie{Name: name, FrameRate: 25}); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					name := fmt.Sprintf("churn-%d-%d", w, i%10)
					if err := s.Create(&Movie{Name: name, FrameRate: 25}); err != nil {
						t.Error(err)
						return
					}
					if err := s.Delete(name); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		for round := 0; round < 200; round++ {
			names := s.List()
			seen := 0
			for i, name := range names {
				if i > 0 && names[i-1] >= name {
					t.Fatalf("disk=%v: listing not strictly sorted at %d: %q then %q", disk, i, names[i-1], name)
				}
				switch {
				case stable[name]:
					seen++
				case len(name) < 6 || name[:6] != "churn-":
					t.Fatalf("disk=%v: listing holds %q, never created", disk, name)
				}
			}
			if seen != len(stable) {
				t.Fatalf("disk=%v: listing holds %d of the %d movies present throughout", disk, seen, len(stable))
			}
		}
		close(stop)
		wg.Wait()
	}
}
