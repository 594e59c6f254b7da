package moviedb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// On-disk layout (one directory per movie under the store root):
//
//	<root>/<escaped-name>/meta.json    name, format, frame rate, attributes
//	<root>/<escaped-name>/segment.dat  frames: u32 BE payload length + payload
//	<root>/<escaped-name>/segment.idx  sidecar: magic + u64 BE end offsets
//
// The segment is append-only; the index is pure acceleration and fully
// rebuildable by scanning the segment. Opening a movie validates the index
// against the segment and repairs both: index entries past the segment are
// dropped, un-indexed complete records are re-discovered by scanning, and a
// torn record at the tail (a crash mid-append) is truncated away — every
// frame before the tear survives byte-identically.

const (
	segmentName = "segment.dat"
	indexName   = "segment.idx"
	metaName    = "meta.json"

	// frameHeaderLen is the per-record length prefix (u32 big-endian).
	frameHeaderLen = 4
	// indexMagic begins every index sidecar; a bad magic means "rebuild".
	indexMagic = "XMVIDX1\n"
)

// MaxFrameBytes bounds a single frame record; a length prefix above it is
// treated as corruption (and, at the tail, as a torn append).
const MaxFrameBytes = 64 << 20

// DefaultDiskShards is the stripe count OpenShardedDiskStore uses for
// shards <= 0. Smaller than the in-memory default: each disk shard is a
// directory tree, and the per-shard lock is only held for index bookkeeping
// (frame reads go through the cache, outside store locks).
const DefaultDiskShards = 8

// DiskConfig tunes OpenDiskStore.
type DiskConfig struct {
	// ChunkFrames is how many frames one cached chunk spans
	// (0 = DefaultChunkFrames). Peak per-source memory is one chunk.
	ChunkFrames int
	// CacheBytes bounds the shared LRU chunk cache
	// (0 = DefaultDiskCacheBytes).
	CacheBytes int64
	// Cache, when non-nil, is used instead of creating a new cache —
	// sharded stores share one so the memory bound is global.
	Cache *ChunkCache
}

// DiskStore is a durable Store over per-movie segment files. Movies are
// served as lazy Content: a stream materializes one chunk window at a time
// through the store's bounded LRU chunk cache, so cold disk reads hold the
// same resident-memory guarantee as the in-memory lazy sources. Safe for
// concurrent use.
type DiskStore struct {
	dir         string
	cache       *ChunkCache
	chunkFrames int

	mu     sync.RWMutex
	movies map[string]*diskMovie
	// names holds the movies' names, sorted.
	names []string
	// pending reserves names whose Create is still writing to disk, so
	// concurrent Creates conflict without the store lock being held across
	// the (possibly long) content drain.
	pending map[string]struct{}
	closed  bool
}

var _ Store = (*DiskStore)(nil)

// movieIDs hands out process-unique instance ids for cache keying.
var movieIDs atomic.Uint64

// diskMeta is the JSON shape of meta.json.
type diskMeta struct {
	Name      string     `json:"name"`
	Format    int        `json:"format"`
	FrameRate int        `json:"frameRate"`
	Attrs     Attributes `json:"attrs,omitempty"`
}

// diskMovie is one movie's open segment + in-memory index.
type diskMovie struct {
	id    uint64
	dir   string
	name  string
	store *DiskStore

	mu        sync.RWMutex
	format    Format
	frameRate int
	attrs     []Attr // immutable snapshot, replaced by SetAttrs
	seg       *os.File
	idx       *os.File
	// ends[i] is the byte offset just past frame i's record; frame i's
	// payload occupies [start(i)+frameHeaderLen, ends[i]).
	ends []int64
	// live is the current recording phase's window, nil before the first
	// Record. Sources consult it at the live edge; appends publish into it
	// while it is unsealed.
	live *LiveWindow

	// refs counts the store's own reference plus one per open source; the
	// files close when it reaches zero (delete/close with live streams).
	refs    atomic.Int32
	deleted atomic.Bool
}

// OpenDiskStore opens (creating if needed) a durable movie store rooted at
// dir, recovering every movie's index and truncating torn appends.
func OpenDiskStore(dir string, cfg DiskConfig) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("moviedb: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("moviedb: %w", err)
	}
	chunk := cfg.ChunkFrames
	if chunk <= 0 {
		chunk = DefaultChunkFrames
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewChunkCache(cfg.CacheBytes)
	}
	s := &DiskStore{
		dir:         dir,
		cache:       cache,
		chunkFrames: chunk,
		movies:      make(map[string]*diskMovie),
		pending:     make(map[string]struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("moviedb: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := s.openMovie(filepath.Join(dir, e.Name()))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("moviedb: open %s: %w", e.Name(), err)
		}
		if m != nil {
			s.movies[m.name] = m
		}
	}
	for name := range s.movies {
		s.names = append(s.names, name)
	}
	slices.Sort(s.names)
	return s, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// Cache returns the store's chunk cache (for statistics and sharing).
func (s *DiskStore) Cache() *ChunkCache { return s.cache }

// openMovie loads one movie directory, repairing its index. Directories
// without a meta.json are skipped (nil, nil) — they are not movies.
func (s *DiskStore) openMovie(dir string) (*diskMovie, error) {
	metaRaw, err := os.ReadFile(filepath.Join(dir, metaName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var meta diskMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil || meta.Name == "" {
		// Torn or foreign metadata: skip this directory (leaving it on disk
		// for inspection) rather than taking every healthy movie in the
		// store down with it.
		return nil, nil
	}
	m := &diskMovie{
		id:        movieIDs.Add(1),
		dir:       dir,
		name:      meta.Name,
		store:     s,
		format:    Format(meta.Format),
		frameRate: meta.FrameRate,
		attrs:     snapshot(meta.Attrs),
	}
	m.refs.Store(1)
	if err := m.openFiles(); err != nil {
		return nil, err
	}
	if err := m.recover(); err != nil {
		m.closeFiles()
		return nil, err
	}
	return m, nil
}

func (m *diskMovie) openFiles() error {
	var err error
	m.seg, err = os.OpenFile(filepath.Join(m.dir, segmentName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	m.idx, err = os.OpenFile(filepath.Join(m.dir, indexName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		m.seg.Close()
		return err
	}
	return nil
}

func (m *diskMovie) closeFiles() {
	if m.seg != nil {
		m.seg.Close()
	}
	if m.idx != nil {
		m.idx.Close()
	}
}

// retainIfLive takes a source reference unless the refcount already hit
// zero (the movie was deleted and its last source finished — the files
// are closed and must not be resurrected). release drops one reference,
// closing the files when the movie is gone and the last source has
// finished.
func (m *diskMovie) retainIfLive() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (m *diskMovie) release() {
	if m.refs.Add(-1) == 0 {
		m.closeFiles()
	}
}

// headerReader reads 4-byte record headers at increasing offsets through a
// readahead buffer, so open-time validation of a small-frame segment costs
// one pread per buffer window instead of one per frame (large frames
// degrade gracefully to one read per header).
type headerReader struct {
	f    *os.File
	size int64
	buf  [256 << 10]byte
	base int64 // file offset of buf[0]
	n    int   // valid bytes in buf
}

func (r *headerReader) header(off int64) (uint32, error) {
	if off < r.base || off+frameHeaderLen > r.base+int64(r.n) {
		want := r.size - off
		if want > int64(len(r.buf)) {
			want = int64(len(r.buf))
		}
		n, err := r.f.ReadAt(r.buf[:want], off)
		if err != nil && (err != io.EOF || int64(n) < frameHeaderLen) {
			return 0, err
		}
		r.base, r.n = off, n
	}
	i := off - r.base
	return binary.BigEndian.Uint32(r.buf[i : i+frameHeaderLen]), nil
}

// recover reconciles the index sidecar with the segment file: the valid
// index prefix is trusted, the remainder of the segment is re-scanned for
// complete records, and a torn tail record is truncated off both. The
// sidecar is rewritten whenever it disagreed with the recovered state.
func (m *diskMovie) recover() error {
	st, err := m.seg.Stat()
	if err != nil {
		return err
	}
	size := st.Size()

	idxRaw, err := io.ReadAll(io.NewSectionReader(m.idx, 0, 1<<30))
	if err != nil {
		return err
	}
	var ends []int64
	hr := &headerReader{f: m.seg, size: size}
	indexed := 0 // entries stored in the sidecar, valid or not
	if len(idxRaw) >= len(indexMagic) && string(idxRaw[:len(indexMagic)]) == indexMagic {
		body := idxRaw[len(indexMagic):]
		indexed = len(body) / 8
		prev := int64(0)
		for i := 0; i+8 <= len(body); i += 8 {
			end := int64(binary.BigEndian.Uint64(body[i : i+8]))
			if end < prev+frameHeaderLen || end > size {
				break
			}
			// The sidecar itself is written without fsync, so a torn entry
			// can be monotonic and in-bounds yet point mid-record — and a
			// rescan from a misaligned boundary could truncate durable
			// frames. Trust an entry only if the record header at its start
			// claims exactly this span; the rescan below rebuilds the rest
			// from the segment's own framing.
			hdr, err := hr.header(prev)
			if err != nil {
				return err
			}
			if int64(hdr) != end-prev-frameHeaderLen {
				break
			}
			ends = append(ends, end)
			prev = end
		}
	} else if len(idxRaw) > 0 {
		indexed = -1 // unreadable sidecar: force a rewrite
	}

	// Scan the un-indexed remainder of the segment for complete records;
	// the first torn record marks the true end of the movie.
	off := int64(0)
	if len(ends) > 0 {
		off = ends[len(ends)-1]
	}
	truncated := false
	for off < size {
		if size-off < frameHeaderLen {
			truncated = true
			break
		}
		hdr, err := hr.header(off)
		if err != nil {
			return err
		}
		n := int64(hdr)
		if n > MaxFrameBytes || off+frameHeaderLen+n > size {
			truncated = true
			break
		}
		off += frameHeaderLen + n
		ends = append(ends, off)
	}
	if truncated {
		if err := m.seg.Truncate(off); err != nil {
			return err
		}
		if err := m.seg.Sync(); err != nil {
			return err
		}
	}
	m.ends = ends
	if indexed != len(ends) || truncated {
		return m.rewriteIndex()
	}
	return nil
}

// rewriteIndex replaces the sidecar with the in-memory index.
func (m *diskMovie) rewriteIndex() error {
	buf := make([]byte, len(indexMagic)+8*len(m.ends))
	copy(buf, indexMagic)
	for i, end := range m.ends {
		binary.BigEndian.PutUint64(buf[len(indexMagic)+8*i:], uint64(end))
	}
	if err := m.idx.Truncate(0); err != nil {
		return err
	}
	_, err := m.idx.WriteAt(buf, 0)
	return err
}

// writeMeta persists the descriptive attributes atomically: temp file,
// fsync, rename — a crash leaves either the old meta.json or the new one,
// never a torn file.
func (m *diskMovie) writeMeta() error {
	meta := diskMeta{Name: m.name, Format: int(m.format), FrameRate: m.frameRate, Attrs: attrMap(m.attrs)}
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(m.dir, metaName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(m.dir, metaName))
}

// start returns the byte offset of frame i's record.
func start(ends []int64, i int64) int64 {
	if i == 0 {
		return 0
	}
	return ends[i-1]
}

// escapeName maps a movie name to a filesystem-safe directory name. The
// query-escaped prefix keeps directories readable; the appended hash (hex:
// case-insensitive by construction) keeps distinct names distinct even on
// case-insensitive filesystems and under the length truncation. The name
// itself is recovered from meta.json, never from the directory.
func escapeName(name string) string {
	esc := url.QueryEscape(name)
	if len(esc) > 128 {
		esc = esc[:128]
	}
	sum := sha256.Sum256([]byte(name))
	return fmt.Sprintf("%s-%x", esc, sum[:8])
}

// Create implements Store. Frames (materialized or lazy Content) are
// drained to the segment file, so a synthesized catalogue becomes durable
// at creation time. The store lock is only held to reserve the name and to
// publish the finished movie — a feature-length drain never stalls
// concurrent operations on other movies.
func (s *DiskStore) Create(mv *Movie) error {
	if mv.Name == "" {
		return fmt.Errorf("moviedb: empty movie name")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("moviedb: store is closed")
	}
	if _, ok := s.movies[mv.Name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrExists, mv.Name)
	}
	if _, ok := s.pending[mv.Name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s (create in progress)", ErrExists, mv.Name)
	}
	s.pending[mv.Name] = struct{}{}
	s.mu.Unlock()
	dir := filepath.Join(s.dir, escapeName(mv.Name))
	m := &diskMovie{
		id:        movieIDs.Add(1),
		dir:       dir,
		name:      mv.Name,
		store:     s,
		format:    mv.Format,
		frameRate: mv.FrameRate,
		attrs:     snapshot(mv.Attrs),
	}
	m.refs.Store(1)
	fail := func(err error) error {
		m.closeFiles()
		os.RemoveAll(dir)
		s.mu.Lock()
		delete(s.pending, mv.Name)
		s.mu.Unlock()
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(fmt.Errorf("moviedb: %w", err))
	}
	if err := m.openFiles(); err != nil {
		return fail(fmt.Errorf("moviedb: %w", err))
	}
	// Existing bytes under this escaped name (a crash-interrupted earlier
	// create, or an unclean delete) must not leak into the new movie, and
	// the index needs its magic before incremental appends extend it.
	if err := m.seg.Truncate(0); err != nil {
		return fail(fmt.Errorf("moviedb: %w", err))
	}
	if err := m.rewriteIndex(); err != nil {
		return fail(fmt.Errorf("moviedb: %w", err))
	}
	if mv.Content != nil {
		if err := m.appendFromSource(mv.Content.Open()); err != nil {
			return fail(fmt.Errorf("moviedb: materialize %s: %w", mv.Name, err))
		}
	} else if len(mv.Frames) > 0 {
		if _, err := m.appendFrames(mv.Frames); err != nil {
			return fail(fmt.Errorf("moviedb: %w", err))
		}
	}
	// meta.json is the completion marker, written (fsync + rename) only
	// after every frame landed: a crash mid-create leaves a meta-less
	// directory that open skips and a retried Create overwrites — never a
	// silently truncated movie.
	if err := m.writeMeta(); err != nil {
		return fail(fmt.Errorf("moviedb: %w", err))
	}
	s.mu.Lock()
	delete(s.pending, mv.Name)
	if s.closed {
		s.mu.Unlock()
		m.closeFiles()
		return fmt.Errorf("moviedb: store is closed")
	}
	s.movies[mv.Name] = m
	s.names = insertName(s.names, mv.Name)
	s.mu.Unlock()
	return nil
}

// appendFromSource drains a FrameSource into the segment in chunk-sized
// batches, so creating a feature-length lazy movie never materializes it.
// The drain is bounded by the source's length at entry: copying from a
// live movie captures a consistent prefix instead of tailing the appender.
func (m *diskMovie) appendFromSource(src FrameSource) error {
	defer src.Close()
	limit := src.Len()
	batch := make([][]byte, 0, m.store.chunkFrames)
	for copied := int64(0); copied < limit; copied++ {
		f, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		cp := make([]byte, len(f))
		copy(cp, f)
		batch = append(batch, cp)
		if len(batch) == cap(batch) {
			if _, err := m.appendFrames(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		_, err := m.appendFrames(batch)
		return err
	}
	return nil
}

// appendFrames writes frame records at the segment tail, extends the
// index, and — while a live window is open — publishes the frames to
// tailing sources (views into the freshly written buffer, so fan-out costs
// no extra copy). The segment write is a single WriteAt followed by fsync;
// on any error the tail is truncated back so the movie never holds a torn
// record in a running store (a crash mid-write is repaired by recover
// instead). Returns the movie's new frame count.
func (m *diskMovie) appendFrames(frames [][]byte) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	base := int64(0)
	if n := len(m.ends); n > 0 {
		base = m.ends[n-1]
	}
	total := 0
	for _, f := range frames {
		if len(f) > MaxFrameBytes {
			return 0, fmt.Errorf("frame of %d bytes exceeds MaxFrameBytes", len(f))
		}
		total += frameHeaderLen + len(f)
	}
	buf := make([]byte, 0, total)
	newEnds := make([]int64, 0, len(frames))
	views := make([][]byte, 0, len(frames))
	off := base
	for _, f := range frames {
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(f)))
		buf = append(buf, hdr[:]...)
		views = append(views, buf[len(buf):len(buf)+len(f)])
		buf = append(buf, f...)
		off += frameHeaderLen + int64(len(f))
		newEnds = append(newEnds, off)
	}
	if _, err := m.seg.WriteAt(buf, base); err != nil {
		_ = m.seg.Truncate(base)
		return 0, err
	}
	if err := m.seg.Sync(); err != nil {
		_ = m.seg.Truncate(base)
		return 0, err
	}
	// Index entries are acceleration only: failure to extend the sidecar
	// is repaired on next open, not a reason to fail the append.
	ibuf := make([]byte, 8*len(newEnds))
	for i, end := range newEnds {
		binary.BigEndian.PutUint64(ibuf[8*i:], uint64(end))
	}
	_, _ = m.idx.WriteAt(ibuf, int64(len(indexMagic)+8*len(m.ends)))
	m.ends = append(m.ends, newEnds...)
	if m.live != nil {
		// Under m.mu, so ring indices always equal segment indices.
		m.live.publish(views)
	}
	return int64(len(m.ends)), nil
}

// lookup returns the live movie under the read lock.
func (s *DiskStore) lookup(name string) (*diskMovie, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, fmt.Errorf("moviedb: store is closed")
	}
	m, ok := s.movies[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return m, nil
}

// Get implements Store. The returned movie's Content is lazy: frames are
// read from disk through the chunk cache when a stream pulls them.
func (s *DiskStore) Get(name string) (*Movie, error) {
	m, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return &Movie{
		Name:      m.name,
		Format:    m.format,
		FrameRate: m.frameRate,
		Attrs:     attrMap(m.attrs),
		Content:   &diskContent{m: m},
	}, nil
}

// Info implements Store.
func (s *DiskStore) Info(name string) (Info, error) {
	m, err := s.lookup(name)
	if err != nil {
		return Info{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Info{Name: m.name, FrameRate: m.frameRate, Length: int64(len(m.ends)), Attrs: m.attrs}, nil
}

// Delete implements Store. A live movie (open recording session) refuses
// with ErrLive. Otherwise the movie's directory is removed and its cache
// entries dropped; sources already streaming it keep their open file and
// finish undisturbed (the data vanishes from disk when they close).
func (s *DiskStore) Delete(name string) error {
	s.mu.Lock()
	closed := s.closed
	m, ok := s.movies[name]
	if ok && !closed {
		m.mu.RLock()
		live := m.live != nil && m.live.Live()
		m.mu.RUnlock()
		if live {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrLive, name)
		}
		delete(s.movies, name)
		s.names = deleteName(s.names, name)
	}
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("moviedb: store is closed")
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	m.deleted.Store(true)
	s.cache.invalidateMovie(m.id)
	err := os.RemoveAll(m.dir)
	m.release() // store reference; files close once the last source does
	if err != nil {
		return fmt.Errorf("moviedb: %w", err)
	}
	return nil
}

// List implements Store.
func (s *DiskStore) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.names)
}

// SetAttrs implements Store; the merged attribute set is persisted to
// meta.json atomically.
func (s *DiskStore) SetAttrs(name string, updates Attributes) error {
	m, err := s.lookup(name)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attrs = merged(m.attrs, updates)
	if err := m.writeMeta(); err != nil {
		return fmt.Errorf("moviedb: %w", err)
	}
	return nil
}

// AppendFrames implements Store: recorded frames go straight to the
// segment file — the disk backend supports append natively, lazy content
// and all. Frames land in any open live window too, so a one-shot append
// during someone else's recording session reaches tailing viewers.
func (s *DiskStore) AppendFrames(name string, frames [][]byte) error {
	m, err := s.lookup(name)
	if err != nil {
		return err
	}
	if _, err := m.appendFrames(frames); err != nil {
		return fmt.Errorf("moviedb: append %s: %w", name, err)
	}
	return nil
}

// Record implements Store.
func (s *DiskStore) Record(name string) (Recorder, error) {
	m, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	// The recorder holds a file reference of its own, so the segment stays
	// writable for the whole session even if the store closes under it.
	if !m.retainIfLive() {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	m.mu.Lock()
	if m.live == nil || !m.live.addSession() {
		m.live = newLiveWindow(int64(len(m.ends)), 0)
		m.live.addSession()
	}
	win := m.live
	m.mu.Unlock()
	return &diskRecorder{m: m, win: win}, nil
}

// diskRecorder is one live append session on a DiskStore movie.
type diskRecorder struct {
	m   *diskMovie
	win *LiveWindow

	mu     sync.Mutex
	closed bool
}

func (r *diskRecorder) Append(frames [][]byte) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("moviedb: append on closed recorder (%s)", r.m.name)
	}
	n, err := r.m.appendFrames(frames)
	if err != nil {
		return 0, fmt.Errorf("moviedb: append %s: %w", r.m.name, err)
	}
	return n, nil
}

func (r *diskRecorder) Len() int64 {
	r.m.mu.RLock()
	defer r.m.mu.RUnlock()
	return int64(len(r.m.ends))
}

func (r *diskRecorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.win.endSession()
		r.m.release()
	}
	return nil
}

// Close releases every movie's files (open sources keep theirs until they
// finish). The store rejects all operations afterwards.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, m := range s.movies {
		m.release()
	}
	s.movies = nil
	s.names = nil
	return nil
}

// diskContent adapts a diskMovie to the lazy Content interface. Len is
// live (it grows as recordings append), and sources follow the live tail:
// history through the chunk cache, the edge through the movie's window.
type diskContent struct {
	m *diskMovie
}

var _ Content = (*diskContent)(nil)

// Len implements Content.
func (c *diskContent) Len() int64 {
	c.m.mu.RLock()
	defer c.m.mu.RUnlock()
	return int64(len(c.m.ends))
}

// Open implements Content. A movie that was deleted and whose last source
// already finished (files closed) yields an empty dead source: the stream
// ends immediately instead of reading a closed file.
func (c *diskContent) Open() FrameSource {
	if !c.m.retainIfLive() {
		return &deadSource{name: c.m.name}
	}
	c.m.mu.RLock()
	ends := c.m.ends[:len(c.m.ends):len(c.m.ends)]
	c.m.mu.RUnlock()
	return &diskSource{
		m:          c.m,
		cache:      c.m.store.cache,
		cf:         int64(c.m.store.chunkFrames),
		ends:       ends,
		lo:         -1,
		hi:         -1,
		tailCursor: newTailCursor(),
	}
}

// deadSource stands in for a movie that vanished between Get and Open: it
// plays as zero frames.
type deadSource struct {
	fixedFrames
	name string
}

var _ FrameSource = (*deadSource)(nil)

func (d *deadSource) Len() int64             { return 0 }
func (d *deadSource) Pos() int64             { return 0 }
func (d *deadSource) Next() ([]byte, error)  { return nil, io.EOF }
func (d *deadSource) NextBatch(int) [][]byte { return nil }
func (d *deadSource) Close() error           { return nil }

func (d *deadSource) SeekTo(pos int64) error {
	if pos != 0 {
		return fmt.Errorf("moviedb: %s was deleted: seek to %d outside 0..0", d.name, pos)
	}
	return nil
}

// diskSource streams a disk movie, following the live tail. It keeps
// exactly one chunk resident: either a shared reference into the chunk
// cache or (for chunks the cache would not admit) a private buffer. The
// slices Next returns point into that chunk (or, at the live edge, into
// the movie's ring) and stay valid until the next chunk load — well past
// the one-call lifetime the FrameSource contract demands.
//
// ends is the source's private view of the movie's index; it is refreshed
// from the movie when the cursor catches up to it, so a finished history
// replay hands off to freshly appended frames without reopening anything.
type diskSource struct {
	m     *diskMovie
	cache *ChunkCache
	cf    int64
	ends  []int64

	pos        int64
	chunk      []byte
	chunkStart int64 // byte offset of chunk[0] in the segment
	lo, hi     int64 // frame range loaded into chunk
	maxChunk   int
	closed     bool
	batch      [][]byte // reused NextBatch result
	// tailCursor provides CancelWait and TakeWaited.
	tailCursor
}

var (
	_ FrameSource      = (*diskSource)(nil)
	_ ResidentReporter = (*diskSource)(nil)
)

func (s *diskSource) Len() int64 {
	s.m.mu.RLock()
	defer s.m.mu.RUnlock()
	return int64(len(s.m.ends))
}

func (s *diskSource) Pos() int64 { return s.pos }

func (s *diskSource) Next() ([]byte, error) {
	if s.closed {
		return nil, fmt.Errorf("moviedb: source is closed")
	}
	for {
		if s.pos < int64(len(s.ends)) {
			if s.pos >= s.lo && s.pos < s.hi {
				break // resident chunk: the hot history path
			}
			// Steady-state live tail: serve straight from the ring,
			// zero-copy and without disturbing the chunk cache with
			// still-growing partial chunks.
			s.m.mu.RLock()
			win := s.m.live
			s.m.mu.RUnlock()
			if win != nil {
				if f, ok := win.Frame(s.pos); ok {
					s.pos++
					return f, nil
				}
			}
			if err := s.load(s.pos / s.cf); err != nil {
				return nil, err
			}
			break
		}
		// Past the private index: refresh it from the movie, and if the
		// frame still does not exist, wait at the live edge.
		s.m.mu.RLock()
		if n := len(s.m.ends); n > len(s.ends) {
			s.ends = s.m.ends[:n:n]
		}
		win := s.m.live
		s.m.mu.RUnlock()
		if s.pos < int64(len(s.ends)) {
			continue
		}
		if win == nil || !s.await(win, s.pos) {
			return nil, io.EOF
		}
	}
	payload := s.chunk[start(s.ends, s.pos)+frameHeaderLen-s.chunkStart : s.ends[s.pos]-s.chunkStart]
	s.pos++
	return payload, nil
}

// NextBatch implements FrameSource: it serves up to max further frames
// from the RESIDENT chunk only — the warm-stream fast path — never loading
// a chunk, touching the cache, or waiting at the live edge (those paths
// fall back to Next). Each returned slice aliases the immutable cache
// chunk, so the whole batch stays valid until the next Next/NextBatch/
// SeekTo/Close moves the cursor; the batch slice itself is reused across
// calls.
func (s *diskSource) NextBatch(max int) [][]byte {
	if s.closed || s.pos < s.lo || s.pos >= s.hi || s.pos >= int64(len(s.ends)) {
		return nil
	}
	hi := s.pos + int64(max)
	if hi > s.hi {
		hi = s.hi
	}
	if n := int64(len(s.ends)); hi > n {
		hi = n
	}
	s.batch = s.batch[:0]
	for ; s.pos < hi; s.pos++ {
		s.batch = append(s.batch,
			s.chunk[start(s.ends, s.pos)+frameHeaderLen-s.chunkStart:s.ends[s.pos]-s.chunkStart])
	}
	return s.batch
}

// load brings chunk ci into the source, through the cache.
func (s *diskSource) load(ci int64) error {
	n := int64(len(s.ends))
	lo := ci * s.cf
	hi := lo + s.cf
	if hi > n {
		hi = n
	}
	from := start(s.ends, lo)
	to := s.ends[hi-1]
	key := chunkKey{movie: s.m.id, chunk: ci, frames: int32(hi - lo)}
	data, ok := s.cache.get(key)
	if !ok {
		data = make([]byte, to-from)
		if _, err := s.m.seg.ReadAt(data, from); err != nil {
			return fmt.Errorf("moviedb: read %s frames %d..%d: %w", s.m.name, lo, hi, err)
		}
		s.cache.put(key, data)
	}
	s.chunk, s.chunkStart, s.lo, s.hi = data, from, lo, hi
	if len(data) > s.maxChunk {
		s.maxChunk = len(data)
	}
	return nil
}

func (s *diskSource) SeekTo(pos int64) error {
	if int64(len(s.ends)) < pos {
		// The private index may trail a live movie; refresh before ruling.
		s.m.mu.RLock()
		if n := len(s.m.ends); n > len(s.ends) {
			s.ends = s.m.ends[:n:n]
		}
		s.m.mu.RUnlock()
	}
	if pos < 0 || pos > int64(len(s.ends)) {
		return fmt.Errorf("moviedb: seek to %d outside 0..%d", pos, len(s.ends))
	}
	s.pos = pos
	return nil
}

func (s *diskSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.CancelWait()
	s.chunk = nil
	s.lo, s.hi = -1, -1
	s.m.release()
	return nil
}

// MaxResident implements ResidentReporter: the largest chunk this source
// has held resident, in bytes.
func (s *diskSource) MaxResident() int { return s.maxChunk }
