package moviedb

import (
	"fmt"
	"io"
)

// SynthConfig describes a deterministic synthetic movie. It substitutes for
// the digitized movie material of the XMovie testbed: frames are
// pseudo-random but reproducible, sized like the named format, so stream
// experiments exercise realistic data volumes.
type SynthConfig struct {
	Name      string
	Format    Format
	FrameRate int
	Frames    int
	// FrameSize overrides the per-format default frame size in bytes.
	FrameSize int
	// ChunkFrames is the lazy source's chunk window: the number of frames
	// generated and resident in memory at once (0 = DefaultChunkFrames).
	// Peak per-source memory is ChunkFrames × FrameSize regardless of
	// movie length.
	ChunkFrames int
	Attrs       Attributes
}

// DefaultChunkFrames is the chunk window used when SynthConfig.ChunkFrames
// is zero: large enough to amortize refills, small enough that thousands
// of concurrent streams stay cheap.
const DefaultChunkFrames = 16

// defaultFrameSize returns a plausible compressed frame size for a format
// at early-90s "quarter-screen" resolution.
func defaultFrameSize(f Format) int {
	switch f {
	case FormatMJPEG:
		return 8 * 1024
	case FormatXMovieRaw:
		return 320 * 240 / 4 // 2-bit color-mapped raw, as in XMovie
	case FormatMPEG1:
		return 4 * 1024
	default:
		return 4 * 1024
	}
}

// normalize fills the config defaults shared by the lazy and eager paths.
func (cfg SynthConfig) normalize() SynthConfig {
	if cfg.FrameRate == 0 {
		cfg.FrameRate = 25
	}
	if cfg.Frames == 0 {
		cfg.Frames = 100
	}
	if cfg.FrameSize == 0 {
		cfg.FrameSize = defaultFrameSize(cfg.Format)
	}
	if cfg.ChunkFrames <= 0 {
		cfg.ChunkFrames = DefaultChunkFrames
	}
	return cfg
}

// nameSeed derives the generator seed from the movie name.
func nameSeed(name string) uint64 {
	seed := uint64(0x9e3779b97f4a7c15)
	for _, c := range name {
		seed = seed*131 + uint64(c)
	}
	return seed
}

// genFrame fills dst with frame i's deterministic payload (an xorshift64*
// stream keyed by seed and frame index).
func genFrame(dst []byte, seed uint64, i int64) {
	size := len(dst)
	s := seed ^ uint64(i)*0xbf58476d1ce4e5b9
	for j := 0; j < size; j += 8 {
		// xorshift64*
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		v := s * 0x2545f4914f6cdd1d
		for k := 0; k < 8 && j+k < size; k++ {
			dst[j+k] = byte(v >> (8 * k))
		}
	}
}

// SynthContent is lazy movie content: frames are generated on demand into
// a reused chunk buffer instead of being materialized up front. A 10k-frame
// movie opened through SynthContent keeps at most ChunkFrames frames
// resident per source, whatever its length.
type SynthContent struct {
	seed   uint64
	frames int64
	size   int
	chunk  int
}

var _ Content = (*SynthContent)(nil)

// NewSynthContent builds lazy content from cfg (defaults applied as in
// Synthesize).
func NewSynthContent(cfg SynthConfig) *SynthContent {
	cfg = cfg.normalize()
	return &SynthContent{
		seed:   nameSeed(cfg.Name),
		frames: int64(cfg.Frames),
		size:   cfg.FrameSize,
		chunk:  cfg.ChunkFrames,
	}
}

// Len implements Content.
func (c *SynthContent) Len() int64 { return c.frames }

// FrameSize returns the per-frame payload size in bytes.
func (c *SynthContent) FrameSize() int { return c.size }

// ChunkFrames returns the chunk-window size in frames.
func (c *SynthContent) ChunkFrames() int { return c.chunk }

// Open implements Content.
func (c *SynthContent) Open() FrameSource { return &synthSource{c: c, hi: -1, lo: -1} }

// synthSource is one stream's cursor over SynthContent. The arena holds
// the currently materialized chunk window [lo, hi); refills regenerate it
// in place, so the source's footprint is bounded by chunk × frame size.
type synthSource struct {
	fixedFrames
	c     *SynthContent
	pos   int64
	arena []byte
	lo    int64
	hi    int64
}

var (
	_ FrameSource      = (*synthSource)(nil)
	_ ResidentReporter = (*synthSource)(nil)
)

func (s *synthSource) Len() int64 { return s.c.frames }
func (s *synthSource) Pos() int64 { return s.pos }

func (s *synthSource) Next() ([]byte, error) {
	if s.pos >= s.c.frames {
		return nil, io.EOF
	}
	if s.pos < s.lo || s.pos >= s.hi {
		s.refill(s.pos)
	}
	i := int(s.pos - s.lo)
	f := s.arena[i*s.c.size : (i+1)*s.c.size]
	s.pos++
	return f, nil
}

// NextBatch implements FrameSource. It hands out nothing: every frame is
// read through Next, which regenerates the window as the cursor leaves it.
func (s *synthSource) NextBatch(int) [][]byte { return nil }

// refill regenerates the chunk window starting at frame from, reusing the
// arena allocation.
func (s *synthSource) refill(from int64) {
	n := int64(s.c.chunk)
	if from+n > s.c.frames {
		n = s.c.frames - from
	}
	need := int(n) * s.c.size
	if cap(s.arena) < need {
		s.arena = make([]byte, need)
	} else {
		s.arena = s.arena[:need]
	}
	for k := int64(0); k < n; k++ {
		genFrame(s.arena[int(k)*s.c.size:int(k+1)*s.c.size], s.c.seed, from+k)
	}
	s.lo, s.hi = from, from+n
}

func (s *synthSource) SeekTo(pos int64) error {
	if pos < 0 || pos > s.c.frames {
		return fmt.Errorf("moviedb: seek to %d outside 0..%d", pos, s.c.frames)
	}
	s.pos = pos
	return nil
}

func (s *synthSource) Close() error {
	s.arena = nil
	s.lo, s.hi = -1, -1
	return nil
}

// MaxResident implements ResidentReporter: the peak chunk-buffer footprint
// in bytes this source has held.
func (s *synthSource) MaxResident() int { return cap(s.arena) }

// synthMovie assembles the movie shell (attributes, format, rate) shared
// by the lazy and eager constructors.
func synthMovie(cfg SynthConfig) *Movie {
	attrs := cfg.Attrs.Clone()
	if attrs == nil {
		attrs = make(Attributes)
	}
	if _, ok := attrs[AttrTitle]; !ok {
		attrs[AttrTitle] = cfg.Name
	}
	attrs[AttrFormat] = cfg.Format.String()
	return &Movie{
		Name:      cfg.Name,
		Format:    cfg.Format,
		FrameRate: cfg.FrameRate,
		Attrs:     attrs,
	}
}

// SynthesizeLazy builds a deterministic movie whose frames are generated
// on demand: nothing is materialized until a stream pulls frames, and each
// open source keeps at most the chunk window resident. This is the form
// the streaming data plane serves from.
func SynthesizeLazy(cfg SynthConfig) *Movie {
	cfg = cfg.normalize()
	m := synthMovie(cfg)
	m.Content = NewSynthContent(cfg)
	return m
}

// Synthesize builds a deterministic movie with every frame materialized —
// the historical slice API, now a thin adapter that drains the lazy
// generator. The same configuration always yields byte-identical frames
// whichever constructor is used, so tests can verify end-to-end delivery.
func Synthesize(cfg SynthConfig) *Movie {
	cfg = cfg.normalize()
	m := synthMovie(cfg)
	src := NewSynthContent(cfg).Open()
	frames := make([][]byte, 0, cfg.Frames)
	for {
		f, err := src.Next()
		if err == io.EOF {
			break
		}
		cp := make([]byte, len(f))
		copy(cp, f)
		frames = append(frames, cp)
	}
	m.Frames = frames
	return m
}

// MustSeed fills a store with n synthetic movies named prefix-0..n-1,
// panicking on store errors (intended for tests and examples).
func MustSeed(s Store, prefix string, n, framesEach int) []string {
	names := make([]string, n)
	formats := []Format{FormatMJPEG, FormatXMovieRaw, FormatMPEG1}
	for i := range names {
		name := fmt.Sprintf("%s-%d", prefix, i)
		m := Synthesize(SynthConfig{
			Name:   name,
			Format: formats[i%len(formats)],
			Frames: framesEach,
			Attrs: Attributes{
				AttrYear: fmt.Sprintf("%d", 1990+i%5),
			},
		})
		if err := s.Create(m); err != nil {
			panic(err)
		}
		names[i] = name
	}
	return names
}
