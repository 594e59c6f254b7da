// Package chaos injects storage and timing faults for failure-recovery
// testing.
//
// FaultStore decorates any moviedb.Store with a deterministic, seeded fault
// schedule: operations can be slowed (a wedged disk), fail transiently
// (a retried I/O error), fail permanently (a dead volume), and appends can
// tear (a crash that persists only a prefix of the batch). The schedule is
// driven by a single seeded RNG, so a chaos run is reproducible
// end to end. Together with netsim's runtime link mutation
// (Link.SetConfig / Partition / Spike) this is the fault-injection half of
// ROADMAP item 5; the recovery half lives in the client's reconnect logic
// and the server's bounded-read degradation.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"xmovie/internal/moviedb"
)

// Errors injected by FaultStore. Transient faults wrap ErrInjected;
// operations on a permanently failed store return ErrDown.
var (
	ErrInjected = errors.New("chaos: injected I/O fault")
	ErrDown     = errors.New("chaos: store permanently failed")
)

// FaultConfig is the injection schedule. All probabilities are independent
// per operation, in [0, 1]. The zero value injects nothing.
type FaultConfig struct {
	// Seed drives the fault schedule; 0 means seed 1.
	Seed int64
	// SlowProb is the probability an operation (including each streaming
	// frame read) stalls for SlowDelay before proceeding.
	SlowProb  float64
	SlowDelay time.Duration
	// ErrProb is the probability an operation fails with a transient
	// error wrapping ErrInjected. The store stays healthy afterwards.
	ErrProb float64
	// TornProb is the probability a recorder Append persists only a
	// prefix of its batch before failing — the crash-visible shape of a
	// torn append seen through the Store interface.
	TornProb float64
}

// FaultStats counts injected faults.
type FaultStats struct {
	Slowed int64 // operations stalled by SlowProb
	Errors int64 // transient failures injected
	Torn   int64 // torn appends injected
}

// FaultStore wraps an inner Store with the fault schedule. The
// configuration is runtime-mutable (SetConfig, FailPermanently, Heal), so
// a test can wedge a healthy store mid-stream and let it recover.
type FaultStore struct {
	inner moviedb.Store

	mu    sync.Mutex
	cfg   FaultConfig
	rng   *rand.Rand
	down  bool
	stats FaultStats
}

var _ moviedb.Store = (*FaultStore)(nil)

// NewFaultStore decorates inner with the given schedule.
func NewFaultStore(inner moviedb.Store, cfg FaultConfig) *FaultStore {
	s := &FaultStore{inner: inner}
	s.SetConfig(cfg)
	return s
}

// SetConfig replaces the fault schedule at runtime and reseeds the
// deterministic fault stream.
func (s *FaultStore) SetConfig(cfg FaultConfig) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s.mu.Lock()
	s.cfg = cfg
	s.rng = rand.New(rand.NewSource(seed))
	s.mu.Unlock()
}

// FailPermanently makes every subsequent operation return ErrDown until
// Heal.
func (s *FaultStore) FailPermanently() {
	s.mu.Lock()
	s.down = true
	s.mu.Unlock()
}

// Heal clears a permanent failure.
func (s *FaultStore) Heal() {
	s.mu.Lock()
	s.down = false
	s.mu.Unlock()
}

// Stats returns a snapshot of the injected-fault counters.
func (s *FaultStore) Stats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Inner returns the decorated store.
func (s *FaultStore) Inner() moviedb.Store { return s.inner }

// gate rolls the schedule for one operation named op: it may stall, and it
// may return an injected error.
func (s *FaultStore) gate(op string) error {
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return fmt.Errorf("%s: %w", op, ErrDown)
	}
	var stall time.Duration
	if s.cfg.SlowProb > 0 && s.rng.Float64() < s.cfg.SlowProb {
		stall = s.cfg.SlowDelay
		s.stats.Slowed++
	}
	fail := s.cfg.ErrProb > 0 && s.rng.Float64() < s.cfg.ErrProb
	if fail {
		s.stats.Errors++
	}
	s.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	if fail {
		return fmt.Errorf("%s: %w", op, ErrInjected)
	}
	return nil
}

// tornLen rolls for a torn append over n frames: ok=false means the append
// proceeds normally; otherwise only the first keep frames persist.
func (s *FaultStore) tornLen(n int) (keep int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down || s.cfg.TornProb <= 0 || n == 0 || s.rng.Float64() >= s.cfg.TornProb {
		return 0, false
	}
	s.stats.Torn++
	return s.rng.Intn(n), true
}

// Create implements moviedb.Store.
func (s *FaultStore) Create(m *moviedb.Movie) error {
	if err := s.gate("create"); err != nil {
		return err
	}
	return s.inner.Create(m)
}

// Get implements moviedb.Store. The returned movie's Content is wrapped so
// streaming frame reads pass through the fault schedule too.
func (s *FaultStore) Get(name string) (*moviedb.Movie, error) {
	if err := s.gate("get"); err != nil {
		return nil, err
	}
	m, err := s.inner.Get(name)
	if err != nil {
		return nil, err
	}
	if m.Content != nil {
		clone := *m
		clone.Content = &faultContent{inner: m.Content, s: s}
		return &clone, nil
	}
	return m, nil
}

// Info implements moviedb.Store; it faults exactly as Get does.
func (s *FaultStore) Info(name string) (moviedb.Info, error) {
	if err := s.gate("info"); err != nil {
		return moviedb.Info{}, err
	}
	return s.inner.Info(name)
}

// Delete implements moviedb.Store.
func (s *FaultStore) Delete(name string) error {
	if err := s.gate("delete"); err != nil {
		return err
	}
	return s.inner.Delete(name)
}

// List implements moviedb.Store. Listing has no error return, so only the
// stall half of the schedule applies.
func (s *FaultStore) List() []string {
	_ = s.gate("list")
	return s.inner.List()
}

// SetAttrs implements moviedb.Store.
func (s *FaultStore) SetAttrs(name string, updates moviedb.Attributes) error {
	if err := s.gate("setattrs"); err != nil {
		return err
	}
	return s.inner.SetAttrs(name, updates)
}

// Record implements moviedb.Store; the returned recorder rolls the schedule
// on every Append.
func (s *FaultStore) Record(name string) (moviedb.Recorder, error) {
	if err := s.gate("record"); err != nil {
		return nil, err
	}
	rec, err := s.inner.Record(name)
	if err != nil {
		return nil, err
	}
	return &faultRecorder{inner: rec, s: s}, nil
}

// Close forwards to the inner store when it is closable (disk stores are;
// MemStore is not).
func (s *FaultStore) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// faultRecorder injects faults into a live append session.
type faultRecorder struct {
	inner moviedb.Recorder
	s     *FaultStore
}

func (r *faultRecorder) Append(frames [][]byte) (int64, error) {
	if err := r.s.gate("append"); err != nil {
		return r.inner.Len(), err
	}
	if keep, torn := r.s.tornLen(len(frames)); torn {
		if keep > 0 {
			if _, err := r.inner.Append(frames[:keep]); err != nil {
				return r.inner.Len(), err
			}
		}
		return r.inner.Len(), fmt.Errorf("append: torn after %d/%d frames: %w", keep, len(frames), ErrInjected)
	}
	return r.inner.Append(frames)
}

func (r *faultRecorder) Len() int64   { return r.inner.Len() }
func (r *faultRecorder) Close() error { return r.inner.Close() }

// faultContent wraps a movie's content so opened sources inject faults on
// the streaming read path.
type faultContent struct {
	inner moviedb.Content
	s     *FaultStore
}

func (c *faultContent) Len() int64 { return c.inner.Len() }
func (c *faultContent) Open() moviedb.FrameSource {
	return &faultSource{FrameSource: c.inner.Open(), s: c.s}
}

// faultSource gates every frame read: NextBatch hands out nothing, so each
// frame is read through Next and passes the gate. The rest of the contract
// is the wrapped source's.
type faultSource struct {
	moviedb.FrameSource
	s *FaultStore
}

func (f *faultSource) Next() ([]byte, error) {
	if err := f.s.gate("read"); err != nil {
		return nil, err
	}
	return f.FrameSource.Next()
}

func (f *faultSource) NextBatch(int) [][]byte { return nil }

// MaxResident forwards the chunk-window residency probe
// (moviedb.ResidentReporter).
func (f *faultSource) MaxResident() int {
	if r, ok := f.FrameSource.(moviedb.ResidentReporter); ok {
		return r.MaxResident()
	}
	return 0
}
