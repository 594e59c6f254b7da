package moviedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// openTestDisk opens a disk store over dir with a small chunk window so
// tests cross chunk boundaries quickly.
func openTestDisk(t *testing.T, dir string, cfg DiskConfig) *DiskStore {
	t.Helper()
	s, err := OpenDiskStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// frameBytes builds n deterministic distinct frames of varying size.
func frameBytes(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		f := make([]byte, 5+i%7)
		for j := range f {
			f[j] = byte(i + j*13)
		}
		frames[i] = f
	}
	return frames
}

func TestDiskStoreCRUD(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 4})

	frames := frameBytes(10)
	m := &Movie{
		Name: "alpha", Format: FormatMJPEG, FrameRate: 25,
		Attrs:  Attributes{AttrTitle: "Alpha", AttrYear: "1994"},
		Frames: frames,
	}
	if err := s.Create(m); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(&Movie{Name: "alpha"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create = %v", err)
	}
	if _, err := s.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing = %v", err)
	}

	got, err := s.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got.Content == nil || got.Frames != nil {
		t.Fatalf("disk movie should come back lazy: %+v", got)
	}
	if got.FrameCount() != 10 || got.Attrs[AttrYear] != "1994" || got.FrameRate != 25 || got.Format != FormatMJPEG {
		t.Fatalf("got %+v (count %d)", got, got.FrameCount())
	}
	streamed := drain(t, got.Open())
	for i := range frames {
		if !bytes.Equal(streamed[i], frames[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}

	if err := s.SetAttrs("alpha", Attributes{AttrYear: "", "rating": "5"}); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("alpha")
	if _, ok := got.Attrs[AttrYear]; ok || got.Attrs["rating"] != "5" {
		t.Fatalf("attrs after set = %v", got.Attrs)
	}

	if err := s.Create(&Movie{Name: "beta/strange name?", Frames: frames[:3]}); err != nil {
		t.Fatal(err)
	}
	if names := s.List(); len(names) != 2 || names[0] != "alpha" || names[1] != "beta/strange name?" {
		t.Fatalf("list = %v", names)
	}

	if err := s.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
	if names := s.List(); len(names) != 1 {
		t.Fatalf("list after delete = %v", names)
	}
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	lazyRef := Synthesize(SynthConfig{Name: "lazy", Frames: 50, FrameSize: 32}).Frames
	eager := frameBytes(9)
	{
		s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 8})
		// A lazy movie is drained to disk at create: durable from then on.
		if err := s.Create(SynthesizeLazy(SynthConfig{Name: "lazy", Frames: 50, FrameSize: 32})); err != nil {
			t.Fatal(err)
		}
		if err := s.Create(&Movie{Name: "eager", FrameRate: 30, Frames: eager[:5]}); err != nil {
			t.Fatal(err)
		}
		if err := appendFrames(s, "eager", eager[5:]); err != nil {
			t.Fatal(err)
		}
		if err := s.SetAttrs("eager", Attributes{"studio": "xmovie"}); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}

	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 8})
	if names := s.List(); len(names) != 2 {
		t.Fatalf("reopened list = %v", names)
	}
	lz, err := s.Get("lazy")
	if err != nil {
		t.Fatal(err)
	}
	streamed := drain(t, lz.Open())
	if len(streamed) != 50 {
		t.Fatalf("lazy movie has %d frames after reopen", len(streamed))
	}
	for i := range streamed {
		if !bytes.Equal(streamed[i], lazyRef[i]) {
			t.Fatalf("lazy frame %d differs after reopen", i)
		}
	}
	eg, err := s.Get("eager")
	if err != nil {
		t.Fatal(err)
	}
	if eg.FrameRate != 30 || eg.Attrs["studio"] != "xmovie" || eg.FrameCount() != 9 {
		t.Fatalf("eager after reopen = %+v (count %d)", eg, eg.FrameCount())
	}
	got := drain(t, eg.Open())
	for i := range eager {
		if !bytes.Equal(got[i], eager[i]) {
			t.Fatalf("eager frame %d differs after reopen", i)
		}
	}
}

// segmentFile returns the segment path of a stored movie.
func segmentFile(dir, name string) string {
	return filepath.Join(dir, escapeName(name), segmentName)
}

// TestDiskStoreCrashRecovery truncates the segment at every byte offset
// inside the last few records — simulating a kill mid-append — and asserts
// that reopening drops exactly the torn tail: every fully written frame
// streams back byte-identically, nothing more.
func TestDiskStoreCrashRecovery(t *testing.T) {
	frames := frameBytes(12)
	// Record boundaries mirror the store's framing.
	ends := make([]int64, len(frames)+1)
	for i, f := range frames {
		ends[i+1] = ends[i] + frameHeaderLen + int64(len(f))
	}
	baseDir := t.TempDir()
	pristineDir := filepath.Join(baseDir, "pristine")
	{
		s, err := OpenDiskStore(pristineDir, DiskConfig{ChunkFrames: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Create(&Movie{Name: "crashy", Frames: frames}); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	segRaw, err := os.ReadFile(segmentFile(pristineDir, "crashy"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(segRaw)) != ends[len(frames)] {
		t.Fatalf("segment is %d bytes, want %d", len(segRaw), ends[len(frames)])
	}

	// wantSurvivors(cut) = frames whose record lies entirely below cut.
	wantSurvivors := func(cut int64) int {
		n := 0
		for n < len(frames) && ends[n+1] <= cut {
			n++
		}
		return n
	}

	check := func(t *testing.T, dir string, cut int64) {
		s, err := OpenDiskStore(dir, DiskConfig{ChunkFrames: 4})
		if err != nil {
			t.Fatalf("reopen after cut at %d: %v", cut, err)
		}
		defer s.Close()
		m, err := s.Get("crashy")
		if err != nil {
			t.Fatal(err)
		}
		want := wantSurvivors(cut)
		if got := int(m.FrameCount()); got != want {
			t.Fatalf("cut at %d: %d frames survived, want %d", cut, got, want)
		}
		streamed := drain(t, m.Open())
		for i := 0; i < want; i++ {
			if !bytes.Equal(streamed[i], frames[i]) {
				t.Fatalf("cut at %d: surviving frame %d corrupted", cut, i)
			}
		}
		// The repaired segment must be truncated to the last good record.
		st, err := os.Stat(segmentFile(dir, "crashy"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != ends[want] {
			t.Fatalf("cut at %d: repaired segment is %d bytes, want %d", cut, st.Size(), ends[want])
		}
	}

	// Every truncation offset within the last three records, plus the
	// clean boundaries further down.
	var cuts []int64
	for c := ends[len(frames)-3]; c <= ends[len(frames)]; c++ {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, 0, ends[1], ends[1]+1, ends[5])
	for _, cut := range cuts {
		dir := filepath.Join(baseDir, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(filepath.Join(dir, escapeName("crashy")), 0o755); err != nil {
			t.Fatal(err)
		}
		metaRaw, err := os.ReadFile(filepath.Join(pristineDir, escapeName("crashy"), metaName))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, escapeName("crashy"), metaName), metaRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentFile(dir, "crashy"), segRaw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, cut)
	}

	t.Run("missing index", func(t *testing.T) {
		// The segment alone is the truth: a store reopens whole without
		// any index file beside it.
		dir := filepath.Join(baseDir, "noidx")
		if err := os.CopyFS(dir, os.DirFS(pristineDir)); err != nil {
			t.Fatal(err)
		}
		idx := filepath.Join(dir, escapeName("crashy"), "segment.idx")
		if _, err := os.Stat(idx); !os.IsNotExist(err) {
			t.Fatalf("store wrote an index file beside the segment: %v", err)
		}
		check(t, dir, ends[len(frames)])
	})

	t.Run("garbage index", func(t *testing.T) {
		// Older stores kept a segment.idx beside the segment; a leftover
		// one, garbage or not, is never read.
		dir := filepath.Join(baseDir, "badidx")
		if err := os.CopyFS(dir, os.DirFS(pristineDir)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, escapeName("crashy"), "segment.idx"), []byte("not an index at all"), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, ends[len(frames)])
	})

	t.Run("crash mid-create", func(t *testing.T) {
		// A create that died before its completion marker (meta.json is
		// written last) leaves a segment file but no metadata: the
		// store skips the directory, and re-creating the movie overwrites
		// the leftovers instead of serving a silently truncated movie.
		dir := filepath.Join(baseDir, "midcreate")
		if err := os.CopyFS(dir, os.DirFS(pristineDir)); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, escapeName("crashy"), metaName)); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDiskStore(dir, DiskConfig{ChunkFrames: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if names := s.List(); len(names) != 0 {
			t.Fatalf("meta-less movie surfaced: %v", names)
		}
		if err := s.Create(&Movie{Name: "crashy", Frames: frames[:2]}); err != nil {
			t.Fatalf("re-create over leftovers: %v", err)
		}
		m, err := s.Get("crashy")
		if err != nil || m.FrameCount() != 2 {
			t.Fatalf("re-created movie: %v, count %d", err, m.FrameCount())
		}
	})

	t.Run("torn header claims beyond EOF", func(t *testing.T) {
		// A record header promising more payload than exists: the classic
		// torn append shape when the header made it out but the payload
		// did not.
		dir := filepath.Join(baseDir, "bighdr")
		if err := os.CopyFS(dir, os.DirFS(pristineDir)); err != nil {
			t.Fatal(err)
		}
		seg := segmentFile(dir, "crashy")
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<20)
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(hdr[:], 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		check(t, dir, ends[len(frames)])
	})
}

func TestDiskAppendVisibleToOpenSource(t *testing.T) {
	// Readable-while-appendable: a source opened before an append follows
	// the movie's growing tail instead of freezing a snapshot.
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 4})
	frames := frameBytes(8)
	if err := s.Create(&Movie{Name: "m", Frames: frames[:4]}); err != nil {
		t.Fatal(err)
	}
	m, err := s.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	src := m.Open() // opened at 4 frames, before the append
	defer src.Close()
	if err := appendFrames(s, "m", frames[4:]); err != nil {
		t.Fatal(err)
	}
	if src.Len() != 8 {
		t.Fatalf("post-append source length = %d", src.Len())
	}
	if m.FrameCount() != 8 {
		t.Fatalf("live content length = %d", m.FrameCount())
	}
	m2, _ := s.Get("m")
	src2 := m2.Open()
	defer src2.Close()
	for _, s := range []FrameSource{src, src2} {
		got := drain(t, s)
		if len(got) != 8 {
			t.Fatalf("stream has %d frames", len(got))
		}
		for i := range frames {
			if !bytes.Equal(got[i], frames[i]) {
				t.Fatalf("frame %d differs after append", i)
			}
		}
	}
}

func TestDiskDeleteWithOpenSource(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 2, CacheBytes: 1}) // cache admits nothing
	frames := frameBytes(6)
	if err := s.Create(&Movie{Name: "doomed", Frames: frames}); err != nil {
		t.Fatal(err)
	}
	m, err := s.Get("doomed")
	if err != nil {
		t.Fatal(err)
	}
	src := m.Open()
	defer src.Close()
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	// The open source finishes its snapshot from the unlinked file.
	got := drain(t, src)
	for i := 1; i < len(frames); i++ {
		if !bytes.Equal(got[i-1], frames[i]) {
			t.Fatalf("frame %d differs after delete", i)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, escapeName("doomed"))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("movie directory still present: %v", err)
	}
}

func TestDiskChunkCacheBoundsAndSharing(t *testing.T) {
	dir := t.TempDir()
	const frameSize = 100
	// Chunks of 4 × (100+4) = 416 bytes; capacity of 1000 holds two.
	cache := NewChunkCache(1000)
	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 4, Cache: cache})
	ref := Synthesize(SynthConfig{Name: "m", Frames: 32, FrameSize: frameSize})
	if err := s.Create(ref); err != nil {
		t.Fatal(err)
	}
	m, err := s.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, m.Open())
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 8 {
		t.Fatalf("cold stream cache stats = %+v", st)
	}
	if st.Bytes > st.CapBytes {
		t.Fatalf("cache %d bytes over its %d bound", st.Bytes, st.CapBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("a 8-chunk stream through a 2-chunk cache must evict")
	}
	// A second stream over the cached tail hits for resident chunks.
	src := m.Open()
	if err := src.SeekTo(24); err != nil {
		t.Fatal(err)
	}
	got := drain(t, src)
	for i := range got {
		if !bytes.Equal(got[i], ref.Frames[24+i]) {
			t.Fatalf("warm frame %d differs", 24+i)
		}
	}
	if st2 := cache.Stats(); st2.Hits != 2 {
		t.Fatalf("warm tail stats = %+v", st2)
	}
}

// TestDiskSourceMemoryBound is the cold-read analogue of the lazy-synth
// chunk-window guarantee: a 10k-frame movie streamed cold from disk keeps
// at most one chunk window resident per source, and the bytes match the
// synthetic reference exactly.
func TestDiskSourceMemoryBound(t *testing.T) {
	dir := t.TempDir()
	const (
		frames    = 10000
		frameSize = 64
		chunk     = 32
	)
	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: chunk})
	if err := s.Create(SynthesizeLazy(SynthConfig{Name: "epic", Frames: frames, FrameSize: frameSize})); err != nil {
		t.Fatal(err)
	}
	m, err := s.Get("epic")
	if err != nil {
		t.Fatal(err)
	}
	src := m.Open()
	defer src.Close()
	ref := NewSynthContent(SynthConfig{Name: "epic", Frames: frames, FrameSize: frameSize}).Open()
	defer ref.Close()
	for i := 0; i < frames; i++ {
		got, err := src.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want, err := ref.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d differs from synthetic reference", i)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after %d frames: %v", frames, err)
	}
	bound := chunk * (frameSize + frameHeaderLen)
	if max := src.(ResidentReporter).MaxResident(); max > bound {
		t.Fatalf("source held %d bytes resident, chunk-window bound is %d", max, bound)
	}
}

func TestShardedDiskStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDiskStore(dir, 4, DiskConfig{ChunkFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 4 {
		t.Fatalf("shards = %d", s.Shards())
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("m-%d", i)
		if err := s.Create(&Movie{Name: name, Frames: frameBytes(3 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if names := s.List(); len(names) != 10 {
		t.Fatalf("list = %v", names)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen detects the existing stripe count even when asked for more.
	s2, err := OpenShardedDiskStore(dir, 32, DiskConfig{ChunkFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Shards() != 4 {
		t.Fatalf("reopened shards = %d", s2.Shards())
	}
	for i := 0; i < 10; i++ {
		m, err := s2.Get(fmt.Sprintf("m-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if int(m.FrameCount()) != 3+i {
			t.Fatalf("m-%d has %d frames", i, m.FrameCount())
		}
	}
}

// TestShardedDiskStoreHealsPartialCreate simulates a crash during the
// very first OpenShardedDiskStore (a non-power-of-two prefix of shard
// directories exists, no movies written): reopening completes the set to
// a power of two instead of mask-routing over a broken stripe count.
func TestShardedDiskStoreHealsPartialCreate(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		if err := os.MkdirAll(filepath.Join(dir, shardDirName(i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenShardedDiskStore(dir, 8, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("healed shards = %d, want 4", s.Shards())
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("h-%d", i)
		if err := s.Create(&Movie{Name: name, Frames: frameBytes(2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(name); err != nil {
			t.Fatalf("get %s after heal: %v", name, err)
		}
	}
}

// TestDiskOpenAfterDeleteYieldsDeadSource covers the Get → Delete → Open
// window: once the delete closed the files (no sources were streaming),
// opening the stale Get's content must not resurrect the closed movie —
// it plays as zero frames.
func TestDiskOpenAfterDeleteYieldsDeadSource(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 2})
	if err := s.Create(&Movie{Name: "gone", Frames: frameBytes(4)}); err != nil {
		t.Fatal(err)
	}
	m, err := s.Get("gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	src := m.Open()
	defer src.Close()
	if src.Len() != 0 {
		t.Fatalf("dead source Len = %d", src.Len())
	}
	if err := src.SeekTo(0); err != nil {
		t.Fatalf("dead source SeekTo(0) = %v", err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("dead source Next = %v, want EOF", err)
	}
}

func TestRawFramesRoundTrip(t *testing.T) {
	frames := frameBytes(7)
	var buf bytes.Buffer
	n, err := WriteRawFrames(&buf, SliceContent(frames).Open())
	if err != nil || n != 7 {
		t.Fatalf("write = %d, %v", n, err)
	}
	got, err := ReadRawFrames(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 7 {
		t.Fatalf("read = %d frames, %v", len(got), err)
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
	// A torn file is an import error, not a silent drop.
	if _, err := ReadRawFrames(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); err == nil {
		t.Fatal("torn raw file imported without error")
	}
}

// TestDiskCachedReadAllocs guards the warm read path: once a movie's
// chunks are cached, streaming it performs no allocations at all — the
// bench-guard gate for the disk read path.
func TestDiskCachedReadAllocs(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskConfig{ChunkFrames: 16})
	if err := s.Create(SynthesizeLazy(SynthConfig{Name: "hot", Frames: 256, FrameSize: 512})); err != nil {
		t.Fatal(err)
	}
	m, err := s.Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	src := m.Open()
	defer src.Close()
	drain(t, src) // warm every chunk
	allocs := testing.AllocsPerRun(50, func() {
		if err := src.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("cached stream allocates %.1f per pass, want 0", allocs)
	}
}

// benchDisk builds a seeded store for the read benchmarks.
func benchDisk(b *testing.B, cacheBytes int64) *DiskStore {
	b.Helper()
	dir := b.TempDir()
	s, err := OpenDiskStore(dir, DiskConfig{ChunkFrames: 32, CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if err := s.Create(SynthesizeLazy(SynthConfig{Name: "bench", Frames: 1000, FrameSize: 4096})); err != nil {
		b.Fatal(err)
	}
	return s
}

func benchStream(b *testing.B, s *DiskStore) {
	m, err := s.Get("bench")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1000 * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := m.Open()
		for {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		src.Close()
	}
}

// BenchmarkDiskStreamCold streams through a cache too small to retain the
// movie: every chunk is a miss and comes off disk.
func BenchmarkDiskStreamCold(b *testing.B) {
	benchStream(b, benchDisk(b, 1))
}

// BenchmarkDiskStreamCached streams a fully cache-resident movie: the
// steady-state hot path the bench guard protects.
func BenchmarkDiskStreamCached(b *testing.B) {
	s := benchDisk(b, 64<<20)
	m, _ := s.Get("bench")
	src := m.Open()
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
	}
	src.Close()
	benchStream(b, s)
}

// TestCrashMidLiveBroadcastSealsAndTruncates kills a disk-backed recording
// mid-append at the live-broadcast boundary: a follower is tailing the
// movie while a recorder appends, and the process dies with a torn record
// at the segment tail. Reopening the directory must truncate the torn
// tail, leave the movie sealed (deletable; plays end at the last good
// frame instead of waiting at a live edge that no recorder will ever
// extend), and stream every fully written frame back byte-identically.
func TestCrashMidLiveBroadcastSealsAndTruncates(t *testing.T) {
	frames := frameBytes(10)
	base := t.TempDir()
	liveDir := filepath.Join(base, "live")
	s := openTestDisk(t, liveDir, DiskConfig{ChunkFrames: 4})
	if err := s.Create(&Movie{Name: "cast", FrameRate: 25}); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Record("cast")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	m, err := s.Get("cast")
	if err != nil {
		t.Fatal(err)
	}

	// The broadcast: a follower tails the live movie while the recorder
	// appends in two batches.
	src := m.Open()
	defer src.Close()
	followed := make(chan [][]byte, 1)
	go func() {
		var fs [][]byte
		for len(fs) < len(frames) {
			f, err := src.Next()
			if err != nil {
				break
			}
			fs = append(fs, append([]byte(nil), f...))
		}
		followed <- fs
	}()
	if _, err := rec.Append(frames[:6]); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Append(frames[6:]); err != nil {
		t.Fatal(err)
	}
	select {
	case fs := <-followed:
		if len(fs) != len(frames) {
			t.Fatalf("follower saw %d live frames, want %d", len(fs), len(frames))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live follower never caught up to the broadcast tail")
	}

	// The kill: copy the directory while the recorder is still open (the
	// on-disk state a crash leaves behind — appends are fsynced, sealing
	// never happened), then add the torn record the dying write left.
	crashDir := filepath.Join(base, "crash")
	if err := os.CopyFS(crashDir, os.DirFS(liveDir)); err != nil {
		t.Fatal(err)
	}
	seg := segmentFile(crashDir, "cast")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := st.Size()
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], 64)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart.
	s2 := openTestDisk(t, crashDir, DiskConfig{ChunkFrames: 4})
	m2, err := s2.Get("cast")
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.FrameCount(); got != int64(len(frames)) {
		t.Fatalf("%d frames survived the crash, want %d", got, len(frames))
	}
	if st, err := os.Stat(seg); err != nil || st.Size() != goodSize {
		t.Fatalf("repaired segment is %d bytes (err %v), want torn tail truncated to %d", st.Size(), err, goodSize)
	}
	got := drain(t, m2.Open())
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d corrupted across the crash", i)
		}
	}
	// Sealed, not live: a live movie refuses Delete; the reopened one
	// must not (no recorder survived the crash to extend it).
	if err := s2.Delete("cast"); err != nil {
		t.Fatalf("reopened movie still considered live: %v", err)
	}
}
