package moviedb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestDiskMovieIsMetaAndSegment: a movie's directory holds its metadata and
// its segment and nothing else, and an open movie holds one file.
func TestDiskMovieIsMetaAndSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 4})
	if err := s.Create(&Movie{Name: "tape", FrameRate: 25, Frames: frameBytes(3)}); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Record("tape")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Append(frameBytes(5)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	mdir := filepath.Join(dir, escapeName("tape"))
	entries, err := os.ReadDir(mdir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{metaName, segmentName}; !slices.Equal(names, want) {
		t.Fatalf("movie directory holds %v, want %v", names, want)
	}

	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	open := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.HasPrefix(target, mdir+string(filepath.Separator)) {
			open++
		}
	}
	if open != 1 {
		t.Fatalf("an open movie holds %d files, want 1", open)
	}
}

// TestDiskOpenSharesReadahead: opening a store scans every movie's segment
// through one readahead buffer, not one per movie.
func TestDiskOpenSharesReadahead(t *testing.T) {
	const movies = 64
	dir := t.TempDir()
	{
		s := openTestDisk(t, dir, DiskConfig{})
		for i := 0; i < movies; i++ {
			if err := s.Create(&Movie{Name: fmt.Sprintf("m%02d", i), Frames: frameBytes(8)}); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := OpenDiskStore(dir, DiskConfig{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := len(s.List()); n != movies {
		t.Fatalf("reopened %d movies, want %d", n, movies)
	}
	d := after.TotalAlloc - before.TotalAlloc
	t.Logf("reopening %d movies allocated %d bytes", movies, d)
	if d >= 4<<20 {
		t.Fatalf("reopening %d movies allocated %d bytes, want < 4 MiB", movies, d)
	}
}

// completeRecords parses seg's complete records from offset 0, returning
// their payloads and the length of the prefix they span.
func completeRecords(seg []byte) ([][]byte, int64) {
	var frames [][]byte
	off := 0
	for len(seg)-off >= frameHeaderLen {
		n := binary.BigEndian.Uint32(seg[off:])
		if n > MaxFrameBytes || uint64(n) > uint64(len(seg)-off-frameHeaderLen) {
			break
		}
		frames = append(frames, seg[off+frameHeaderLen:off+frameHeaderLen+int(n)])
		off += frameHeaderLen + int(n)
	}
	return frames, int64(off)
}

// FuzzDiskOpen opens a store holding one movie directory built from the
// input's segment and meta.json bytes. Open must succeed and never panic; a
// movie with unreadable metadata is skipped and its segment left alone.
// Otherwise the movie holds exactly the complete records from offset 0,
// each streaming back byte-identical, and the segment is truncated to that
// prefix; a second open recovers the same frames and truncates nothing.
func FuzzDiskOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg, meta []byte) {
		dir := t.TempDir()
		mdir := filepath.Join(dir, "movie")
		if err := os.Mkdir(mdir, 0o755); err != nil {
			t.Fatal(err)
		}
		segPath := filepath.Join(mdir, segmentName)
		if err := os.WriteFile(segPath, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mdir, metaName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		var dm diskMeta
		readable := json.Unmarshal(meta, &dm) == nil && dm.Name != ""
		want, prefix := completeRecords(seg)
		if !readable {
			prefix = int64(len(seg))
		}
		for open := 1; open <= 2; open++ {
			s, err := OpenDiskStore(dir, DiskConfig{ChunkFrames: 4})
			if err != nil {
				t.Fatalf("open %d: %v", open, err)
			}
			names := s.List()
			switch {
			case !readable:
				if len(names) != 0 {
					t.Fatalf("open %d: unreadable metadata surfaced as %q", open, names)
				}
			case len(names) != 1 || names[0] != dm.Name:
				t.Fatalf("open %d: store lists %q, want [%q]", open, names, dm.Name)
			default:
				m, err := s.Get(dm.Name)
				if err != nil {
					t.Fatal(err)
				}
				if n := m.FrameCount(); n != int64(len(want)) {
					t.Fatalf("open %d: %d frames, want %d", open, n, len(want))
				}
				src := m.Open()
				got := drain(t, src)
				src.Close()
				if len(got) != len(want) {
					t.Fatalf("open %d: streamed %d frames, want %d", open, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("open %d: frame %d = %x, want %x", open, i, got[i], want[i])
					}
				}
			}
			s.Close()
			st, err := os.Stat(segPath)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != prefix {
				t.Fatalf("open %d: segment is %d bytes, want %d", open, st.Size(), prefix)
			}
		}
	})
}
