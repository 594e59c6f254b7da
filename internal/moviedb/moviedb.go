// Package moviedb stores digital movies: frames plus descriptive attributes.
//
// It is the paper's "movie database" (Fig. 2) that MCAM server entities
// serve streams from, and the synthetic-movie generator substitutes for the
// production movie material the XMovie project used.
//
// Movies are readable while appendable: Store.Record opens a live append
// session, and FrameSources opened on the same movie follow its growing
// tail through the movie's LiveWindow instead of ending early — see
// live.go and the Content/FrameSource contract in source.go.
package moviedb

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
)

// Format identifies a movie's digital image format.
type Format int

// Formats from the XMovie environment.
const (
	FormatMJPEG Format = iota + 1
	FormatXMovieRaw
	FormatMPEG1
)

// String returns the format name.
func (f Format) String() string {
	switch f {
	case FormatMJPEG:
		return "M-JPEG"
	case FormatXMovieRaw:
		return "XMovie-Raw"
	case FormatMPEG1:
		return "MPEG-1"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Attributes are the descriptive properties kept in the movie directory:
// free-form key/value pairs plus well-known keys.
type Attributes map[string]string

// Well-known attribute keys.
const (
	AttrTitle    = "title"
	AttrYear     = "year"
	AttrDirector = "director"
	AttrFormat   = "format"
	AttrLocation = "location"
)

// Clone returns a copy of the attribute set.
func (a Attributes) Clone() Attributes {
	out := make(Attributes, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Attr is one descriptive attribute of a snapshot.
type Attr struct{ Name, Value string }

// snapshot returns a's pairs sorted by name: a fresh snapshot, which the
// store never mutates once published.
func snapshot(a Attributes) []Attr {
	out := make([]Attr, 0, len(a))
	for k, v := range a {
		out = append(out, Attr{Name: k, Value: v})
	}
	slices.SortFunc(out, func(x, y Attr) int { return strings.Compare(x.Name, y.Name) })
	return out
}

// merged returns the snapshot that updates (a value of "" deletes the
// key) make of snap, leaving snap as it is.
func merged(snap []Attr, updates Attributes) []Attr {
	m := attrMap(snap)
	for k, v := range updates {
		if v == "" {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
	return snapshot(m)
}

// attrMap returns a snapshot as a fresh map.
func attrMap(snap []Attr) Attributes {
	m := make(Attributes, len(snap))
	for _, a := range snap {
		m[a.Name] = a.Value
	}
	return m
}

// Info is a movie's catalogue entry as one read saw it.
type Info struct {
	Name      string
	FrameRate int
	// Length is the frame count at the moment of the read.
	Length int64
	// Attrs is the store's attribute snapshot, sorted by name. It is
	// shared: SetAttrs replaces a movie's snapshot and never edits one, so
	// it stays as read — and the caller must not edit it either.
	Attrs []Attr
}

// Movie is one stored movie.
type Movie struct {
	Name      string
	Format    Format
	FrameRate int // frames per second
	Attrs     Attributes
	// Frames holds materialized frame payloads. For lazy movies (Content
	// non-nil) it stays nil; the data plane reads through Open either way.
	Frames [][]byte
	// Content, when non-nil, is the movie's lazy frame payload; it takes
	// precedence over Frames. Store.Get always populates it with a
	// store-backed Content whose sources follow the movie's live tail;
	// movies built by hand may carry an immutable Content (SynthContent,
	// SliceContent) instead.
	Content Content
}

// FrameCount returns the number of stored frames, materialized or lazy.
// On a live movie this is the length at the moment of the call.
func (m *Movie) FrameCount() int64 {
	if m.Content != nil {
		return m.Content.Len()
	}
	return int64(len(m.Frames))
}

// Open returns a fresh FrameSource over the movie's content, positioned at
// frame 0. Every open is independent, so many streams can play the same
// movie concurrently; lazy movies materialize at most one chunk window per
// source. A source opened on a recording movie follows the live tail (see
// the FrameSource contract in source.go).
func (m *Movie) Open() FrameSource {
	if m.Content != nil {
		return m.Content.Open()
	}
	return SliceContent(m.Frames).Open()
}

// Duration returns the playing time in whole milliseconds.
func (m *Movie) DurationMillis() int64 {
	if m.FrameRate <= 0 {
		return 0
	}
	return m.FrameCount() * 1000 / int64(m.FrameRate)
}

// Errors returned by stores. ErrLive lives in live.go.
var (
	ErrNotFound = errors.New("moviedb: no such movie")
	ErrExists   = errors.New("moviedb: movie already exists")
)

// Store is a movie repository.
type Store interface {
	// Create inserts a new movie; ErrExists if the name is taken.
	Create(m *Movie) error
	// Get returns the movie by name. Its Attrs is the caller's own copy.
	Get(name string) (*Movie, error)
	// Info returns the movie's name, frame rate, length and attribute
	// snapshot, copying nothing.
	Info(name string) (Info, error)
	// Delete removes the movie by name. A movie with an open recording
	// session refuses with ErrLive.
	Delete(name string) error
	// List returns all movie names, sorted.
	List() []string
	// SetAttrs merges attribute updates into the named movie (a value of
	// "" deletes the key).
	SetAttrs(name string, updates Attributes) error
	// Record opens a live append session on the named movie. While the
	// session is open the movie is live: sources follow its growing tail
	// and Delete refuses. Sessions on the same movie share one live
	// phase, which seals when the last of them closes.
	Record(name string) (Recorder, error)
}

// MemStore is an in-memory Store, safe for concurrent use. Each movie
// carries its own lock, so appends to one live movie never stall reads of
// another.
type MemStore struct {
	mu     sync.RWMutex
	movies map[string]*memMovie
	// names holds the movies' names, sorted (guarded by mu).
	names []string
}

// memMovie is the store's representation of one movie: an optional
// immutable lazy base (the content the movie was created with) plus the
// frames appended after it, and the live window of the current recording
// phase, if any.
type memMovie struct {
	name string

	mu        sync.Mutex
	format    Format
	frameRate int
	attrs     []Attr   // immutable snapshot, replaced by SetAttrs
	base      Content  // immutable; nil for eager movies
	baseLen   int64    // base.Len(), frozen at Create
	frames    [][]byte // frames after the base (all frames when base == nil)
	live      *LiveWindow
}

// total returns the movie length; callers hold mm.mu.
func (mm *memMovie) total() int64 { return mm.baseLen + int64(len(mm.frames)) }

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{movies: make(map[string]*memMovie)}
}

// Create implements Store. Frame payloads are copied in as slice headers;
// when m carries a lazy Content it becomes the movie's immutable base and
// m.Frames is ignored (Content takes precedence, as in Movie).
func (s *MemStore) Create(m *Movie) error {
	if m.Name == "" {
		return fmt.Errorf("moviedb: empty movie name")
	}
	mm := &memMovie{
		name:      m.Name,
		format:    m.Format,
		frameRate: m.FrameRate,
		attrs:     snapshot(m.Attrs),
		base:      m.Content,
	}
	if mm.base != nil {
		mm.baseLen = mm.base.Len()
	} else {
		mm.frames = append([][]byte(nil), m.Frames...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.movies[m.Name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, m.Name)
	}
	s.movies[m.Name] = mm
	s.names = insertName(s.names, m.Name)
	return nil
}

func (s *MemStore) lookup(name string) (*memMovie, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mm, ok := s.movies[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return mm, nil
}

// Get implements Store. The returned movie's Content follows the live
// tail; for eager movies Frames additionally exposes the materialized
// payloads as of the call (shared storage — do not mutate).
func (s *MemStore) Get(name string) (*Movie, error) {
	mm, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	cp := &Movie{
		Name:      mm.name,
		Format:    mm.format,
		FrameRate: mm.frameRate,
		Attrs:     attrMap(mm.attrs),
		Content:   &memContent{mm: mm},
	}
	if mm.base == nil {
		cp.Frames = mm.frames[:len(mm.frames):len(mm.frames)]
	}
	return cp, nil
}

// Info implements Store.
func (s *MemStore) Info(name string) (Info, error) {
	mm, err := s.lookup(name)
	if err != nil {
		return Info{}, err
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return Info{Name: mm.name, FrameRate: mm.frameRate, Length: mm.total(), Attrs: mm.attrs}, nil
}

// Delete implements Store; a live movie refuses with ErrLive. Sources
// already open on the movie keep reading their snapshot — memory-backed
// frames outlive the catalogue entry.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mm, ok := s.movies[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	mm.mu.Lock()
	live := mm.live != nil && mm.live.Live()
	mm.mu.Unlock()
	if live {
		return fmt.Errorf("%w: %s", ErrLive, name)
	}
	delete(s.movies, name)
	s.names = deleteName(s.names, name)
	return nil
}

// List implements Store.
func (s *MemStore) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.names)
}

// insertName adds name to the sorted names (it is not there yet).
func insertName(names []string, name string) []string {
	i, _ := slices.BinarySearch(names, name)
	return slices.Insert(names, i, name)
}

// deleteName removes name from the sorted names, if it is there.
func deleteName(names []string, name string) []string {
	if i, ok := slices.BinarySearch(names, name); ok {
		return slices.Delete(names, i, i+1)
	}
	return names
}

// SetAttrs implements Store.
func (s *MemStore) SetAttrs(name string, updates Attributes) error {
	mm, err := s.lookup(name)
	if err != nil {
		return err
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.attrs = merged(mm.attrs, updates)
	return nil
}

// Record implements Store.
func (s *MemStore) Record(name string) (Recorder, error) {
	mm, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.live == nil || !mm.live.addSession() {
		mm.live = newLiveWindow(mm.total(), 0)
		mm.live.addSession()
	}
	return &memRecorder{mm: mm, win: mm.live}, nil
}

// memRecorder is one live append session on a MemStore movie.
type memRecorder struct {
	mm  *memMovie
	win *LiveWindow

	mu     sync.Mutex
	closed bool
}

func (r *memRecorder) Append(frames [][]byte) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("moviedb: append on closed recorder (%s)", r.mm.name)
	}
	cps := make([][]byte, len(frames))
	for i, f := range frames {
		cp := make([]byte, len(f))
		copy(cp, f)
		cps[i] = cp
	}
	r.mm.mu.Lock()
	r.mm.frames = append(r.mm.frames, cps...)
	n := r.mm.total()
	// Published under mm.mu so ring indices equal storage indices even
	// with concurrent sessions, and a woken source always finds its frame.
	r.win.publish(cps)
	r.mm.mu.Unlock()
	return n, nil
}

func (r *memRecorder) Len() int64 {
	r.mm.mu.Lock()
	defer r.mm.mu.Unlock()
	return r.mm.total()
}

func (r *memRecorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.win.endSession()
	}
	return nil
}

// memContent serves a MemStore movie: history from the base content and
// the appended frames, then the live tail.
type memContent struct {
	mm *memMovie
}

var _ Content = (*memContent)(nil)

func (c *memContent) Len() int64 {
	c.mm.mu.Lock()
	defer c.mm.mu.Unlock()
	return c.mm.total()
}

func (c *memContent) Open() FrameSource {
	c.mm.mu.Lock()
	base := c.mm.base
	baseLen := c.mm.baseLen
	c.mm.mu.Unlock()
	src := &memSource{mm: c.mm, baseLen: baseLen, tailCursor: newTailCursor()}
	if base != nil {
		src.base = base.Open()
	}
	return src
}

// memSource reads a MemStore movie: positions below baseLen come from a
// cursor over the immutable base content, positions above from the
// appended frames, and at the live edge it waits on the movie's current
// window.
type memSource struct {
	mm      *memMovie
	base    FrameSource // nil when the movie has no lazy base
	baseLen int64
	pos     int64
	closed  bool
	batch   [][]byte // reused NextBatch result
	// tailCursor provides CancelWait and TakeWaited.
	tailCursor
}

func (s *memSource) Len() int64 {
	s.mm.mu.Lock()
	defer s.mm.mu.Unlock()
	return s.mm.total()
}

func (s *memSource) Pos() int64 { return s.pos }

func (s *memSource) Next() ([]byte, error) {
	if s.closed {
		return nil, fmt.Errorf("moviedb: source is closed")
	}
	for {
		if s.pos < s.baseLen {
			if s.base.Pos() != s.pos {
				if err := s.base.SeekTo(s.pos); err != nil {
					return nil, err
				}
			}
			f, err := s.base.Next()
			if err == nil {
				s.pos++
			}
			return f, err
		}
		s.mm.mu.Lock()
		if i := s.pos - s.baseLen; i < int64(len(s.mm.frames)) {
			f := s.mm.frames[i]
			s.mm.mu.Unlock()
			s.pos++
			return f, nil
		}
		win := s.mm.live
		s.mm.mu.Unlock()
		if win == nil || !s.await(win, s.pos) {
			return nil, io.EOF
		}
	}
}

// NextBatch implements FrameSource: base-content frames forward to the
// base cursor's own batching; already-appended frames are immutable and
// resident, so they batch directly. Returns nothing at the live edge (Next
// handles waiting there).
func (s *memSource) NextBatch(max int) [][]byte {
	if s.closed || max <= 0 {
		return nil
	}
	if s.pos < s.baseLen {
		if left := s.baseLen - s.pos; int64(max) > left {
			max = int(left)
		}
		if s.base.Pos() != s.pos {
			if err := s.base.SeekTo(s.pos); err != nil {
				return nil
			}
		}
		out := s.base.NextBatch(max)
		s.pos += int64(len(out))
		return out
	}
	s.mm.mu.Lock()
	i := s.pos - s.baseLen
	n := int64(len(s.mm.frames)) - i
	if n > int64(max) {
		n = int64(max)
	}
	if n <= 0 {
		s.mm.mu.Unlock()
		return nil
	}
	s.batch = append(s.batch[:0], s.mm.frames[i:i+n]...)
	s.mm.mu.Unlock()
	s.pos += n
	return s.batch
}

func (s *memSource) SeekTo(pos int64) error {
	if n := s.Len(); pos < 0 || pos > n {
		return fmt.Errorf("moviedb: seek to %d outside 0..%d", pos, n)
	}
	s.pos = pos
	return nil
}

func (s *memSource) Close() error {
	s.closed = true
	s.CancelWait()
	if s.base != nil {
		return s.base.Close()
	}
	return nil
}

// MaxResident forwards the base cursor's bound, if it reports one.
func (s *memSource) MaxResident() int {
	if rr, ok := s.base.(ResidentReporter); ok {
		return rr.MaxResident()
	}
	return 0
}

// Materialize drains lazy content into owned frame slices. The drain is
// bounded by the content's length at the moment of the call, so
// materializing a live movie yields a consistent prefix instead of chasing
// the appender.
func Materialize(c Content) ([][]byte, error) {
	src := c.Open()
	defer src.Close()
	n := c.Len()
	frames := make([][]byte, 0, n)
	for int64(len(frames)) < n {
		f, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		cp := make([]byte, len(f))
		copy(cp, f)
		frames = append(frames, cp)
	}
	return frames, nil
}
