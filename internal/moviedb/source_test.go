package moviedb

import (
	"bytes"
	"io"
	"testing"
)

// drain pulls every remaining frame out of a source, copying payloads.
func drain(t *testing.T, src FrameSource) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		f, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), f...))
	}
}

func TestLazySynthMatchesEager(t *testing.T) {
	cfg := SynthConfig{Name: "twin", Frames: 77, FrameSize: 333, ChunkFrames: 8}
	eager := Synthesize(cfg)
	lazy := SynthesizeLazy(cfg)
	if lazy.Frames != nil {
		t.Fatal("lazy movie materialized frames")
	}
	if lazy.FrameCount() != 77 || eager.FrameCount() != 77 {
		t.Fatalf("frame counts: lazy %d eager %d", lazy.FrameCount(), eager.FrameCount())
	}
	got := drain(t, lazy.Open())
	if len(got) != len(eager.Frames) {
		t.Fatalf("lazy yielded %d frames, eager %d", len(got), len(eager.Frames))
	}
	for i := range got {
		if !bytes.Equal(got[i], eager.Frames[i]) {
			t.Fatalf("frame %d differs between lazy and eager synthesis", i)
		}
	}
}

func TestSynthSourceChunkWindowBound(t *testing.T) {
	cfg := SynthConfig{Name: "bounded", Frames: 10000, FrameSize: 256, ChunkFrames: 32}
	m := SynthesizeLazy(cfg)
	src := m.Open()
	n := 0
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 10000 {
		t.Fatalf("streamed %d frames", n)
	}
	rr := src.(ResidentReporter)
	if max := rr.MaxResident(); max > 32*256 {
		t.Fatalf("resident %d bytes exceeds chunk window %d", max, 32*256)
	}
}

func TestSynthSourceSeek(t *testing.T) {
	cfg := SynthConfig{Name: "seeker", Frames: 100, FrameSize: 64, ChunkFrames: 7}
	m := SynthesizeLazy(cfg)
	eager := Synthesize(cfg)
	src := m.Open()
	for _, pos := range []int64{50, 3, 99, 0, 42} {
		if err := src.SeekTo(pos); err != nil {
			t.Fatal(err)
		}
		if src.Pos() != pos {
			t.Fatalf("pos = %d after seek to %d", src.Pos(), pos)
		}
		f, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f, eager.Frames[pos]) {
			t.Fatalf("frame at %d differs after seek", pos)
		}
	}
	// Seek to Len is valid and yields EOF; out of range is rejected.
	if err := src.SeekTo(100); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("next at end = %v", err)
	}
	if err := src.SeekTo(101); err == nil {
		t.Fatal("seek past end accepted")
	}
	if err := src.SeekTo(-1); err == nil {
		t.Fatal("negative seek accepted")
	}
}

func TestSliceContentAdapter(t *testing.T) {
	m := Synthesize(SynthConfig{Name: "slice", Frames: 10, FrameSize: 16})
	src := m.Open()
	if src.Len() != 10 {
		t.Fatalf("len = %d", src.Len())
	}
	got := drain(t, src)
	for i := range got {
		if !bytes.Equal(got[i], m.Frames[i]) {
			t.Fatalf("frame %d differs through slice source", i)
		}
	}
}

func TestStoreLazyMovie(t *testing.T) {
	s := NewMemStore()
	if err := s.Create(SynthesizeLazy(SynthConfig{Name: "lz", Frames: 20, FrameSize: 8})); err != nil {
		t.Fatal(err)
	}
	m, err := s.Get("lz")
	if err != nil {
		t.Fatal(err)
	}
	if m.Frames != nil || m.Content == nil {
		t.Fatalf("lazy movie came back materialized: frames %d content %v", len(m.Frames), m.Content)
	}
	if m.FrameCount() != 20 {
		t.Fatalf("frame count %d", m.FrameCount())
	}
	if got := len(drain(t, m.Open())); got != 20 {
		t.Fatalf("streamed %d frames from stored lazy movie", got)
	}
	// Appending to lazy content stays lazy (record-onto-synthetic): the
	// base generator keeps serving the first 20 frames byte-identically
	// and the appended frame follows them, with nothing materialized.
	want := Synthesize(SynthConfig{Name: "lz", Frames: 20, FrameSize: 8}).Frames
	if err := appendFrames(s, "lz", [][]byte{{1}}); err != nil {
		t.Fatalf("append to lazy movie: %v", err)
	}
	m, err = s.Get("lz")
	if err != nil {
		t.Fatal(err)
	}
	if m.Content == nil || m.FrameCount() != 21 {
		t.Fatalf("after append: content %v, count %d", m.Content, m.FrameCount())
	}
	got := drain(t, m.Open())
	if len(got) != 21 {
		t.Fatalf("after append: streamed %d frames", len(got))
	}
	for i, f := range want {
		if !bytes.Equal(got[i], f) {
			t.Fatalf("base frame %d differs from lazy original", i)
		}
	}
	if !bytes.Equal(got[20], []byte{1}) {
		t.Fatalf("appended frame = %v", got[20])
	}
}
