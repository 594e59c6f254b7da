package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xmovie/internal/moviedb"
)

func seedStore(t *testing.T) *moviedb.MemStore {
	t.Helper()
	st := moviedb.NewMemStore()
	if err := st.Create(&moviedb.Movie{
		Name:      "casablanca",
		FrameRate: 25,
		Frames:    [][]byte{{1}, {2}, {3}},
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestZeroConfigIsTransparent(t *testing.T) {
	fs := NewFaultStore(seedStore(t), FaultConfig{})
	m, err := fs.Get("casablanca")
	if err != nil {
		t.Fatal(err)
	}
	if m.FrameCount() != 3 {
		t.Fatalf("count = %d", m.FrameCount())
	}
	src := m.Open()
	defer src.Close()
	for i := 0; i < 3; i++ {
		f, err := src.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f[0] != byte(i+1) {
			t.Fatalf("frame %d = %v", i, f)
		}
	}
	if st := fs.Stats(); st != (FaultStats{}) {
		t.Fatalf("faults injected by zero config: %+v", st)
	}
}

func TestTransientErrorsAndRecovery(t *testing.T) {
	fs := NewFaultStore(seedStore(t), FaultConfig{ErrProb: 1, Seed: 3})
	if _, err := fs.Get("casablanca"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get under ErrProb=1 = %v", err)
	}
	if err := fs.Create(&moviedb.Movie{Name: "x"}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Create under ErrProb=1 = %v", err)
	}
	// The schedule is runtime-mutable: clearing it heals the store.
	fs.SetConfig(FaultConfig{})
	if _, err := fs.Get("casablanca"); err != nil {
		t.Fatalf("Get after clearing schedule: %v", err)
	}
	if got := fs.Stats().Errors; got != 2 {
		t.Fatalf("injected errors = %d, want 2", got)
	}
}

func TestPermanentFailureAndHeal(t *testing.T) {
	fs := NewFaultStore(seedStore(t), FaultConfig{})
	fs.FailPermanently()
	if _, err := fs.Get("casablanca"); !errors.Is(err, ErrDown) {
		t.Fatalf("Get on failed store = %v", err)
	}
	if err := fs.Delete("casablanca"); !errors.Is(err, ErrDown) {
		t.Fatalf("Delete on failed store = %v", err)
	}
	fs.Heal()
	if _, err := fs.Get("casablanca"); err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
}

func TestSlowReads(t *testing.T) {
	const delay = 20 * time.Millisecond
	fs := NewFaultStore(seedStore(t), FaultConfig{SlowProb: 1, SlowDelay: delay})
	start := time.Now()
	if _, err := fs.Get("casablanca"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("Get took %v, want >= %v", took, delay)
	}
	if fs.Stats().Slowed == 0 {
		t.Fatal("no slow faults recorded")
	}
}

func TestStreamingReadsGoThroughSchedule(t *testing.T) {
	fs := NewFaultStore(seedStore(t), FaultConfig{})
	m, err := fs.Get("casablanca")
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the store after the source is open: mid-stream reads fail.
	fs.SetConfig(FaultConfig{ErrProb: 1})
	src := m.Open()
	defer src.Close()
	if _, err := src.Next(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Next on wedged store = %v", err)
	}
	fs.SetConfig(FaultConfig{})
	if f, err := src.Next(); err != nil || f[0] != 1 {
		t.Fatalf("Next after heal = %v, %v", f, err)
	}
}

func TestTornAppendPersistsPrefix(t *testing.T) {
	st := seedStore(t)
	fs := NewFaultStore(st, FaultConfig{TornProb: 1, Seed: 99})
	rec, err := fs.Record("casablanca")
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]byte{{10}, {11}, {12}, {13}}
	_, err = rec.Append(batch)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append = %v", err)
	}
	if !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn append error lacks shape: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// The surviving length is 3 + some strict prefix of the batch, and the
	// inner store really holds exactly that prefix.
	m, err := st.Get("casablanca")
	if err != nil {
		t.Fatal(err)
	}
	n := m.FrameCount()
	if n < 3 || n >= 3+int64(len(batch)) {
		t.Fatalf("after torn append count = %d, want in [3, 7)", n)
	}
	src := m.Open()
	defer src.Close()
	for i := int64(0); i < n; i++ {
		f, err := src.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var want byte
		if i < 3 {
			want = byte(i + 1)
		} else {
			want = batch[i-3][0]
		}
		if f[0] != want {
			t.Fatalf("frame %d = %d, want %d", i, f[0], want)
		}
	}
	if fs.Stats().Torn != 1 {
		t.Fatalf("torn count = %d", fs.Stats().Torn)
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	run := func() FaultStats {
		fs := NewFaultStore(seedStore(t), FaultConfig{ErrProb: 0.5, SlowProb: 0.3, Seed: 1234})
		for i := 0; i < 200; i++ {
			fs.Get("casablanca")
		}
		return fs.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Errors == 0 || a.Slowed == 0 {
		t.Fatalf("schedule injected nothing: %+v", a)
	}
}

// TestInfoFaultsLikeGet rolls the schedule on Info as on Get: transient
// errors, permanent failure, stalls, and the same counters.
func TestInfoFaultsLikeGet(t *testing.T) {
	fs := NewFaultStore(seedStore(t), FaultConfig{ErrProb: 1, Seed: 3})
	if _, err := fs.Info("casablanca"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Info under ErrProb=1 = %v", err)
	}
	if got := fs.Stats().Errors; got != 1 {
		t.Fatalf("injected errors = %d, want 1", got)
	}
	const delay = 20 * time.Millisecond
	fs.SetConfig(FaultConfig{SlowProb: 1, SlowDelay: delay})
	start := time.Now()
	if m, err := fs.Info("casablanca"); err != nil || m.Length != 3 {
		t.Fatalf("Info on a slow store = %+v, %v", m, err)
	}
	if took := time.Since(start); took < delay || fs.Stats().Slowed != 1 {
		t.Fatalf("Info took %v with %d stalls, want >= %v and 1", took, fs.Stats().Slowed, delay)
	}
	fs.FailPermanently()
	if _, err := fs.Info("casablanca"); !errors.Is(err, ErrDown) {
		t.Fatalf("Info on failed store = %v", err)
	}
	fs.Heal()
	fs.SetConfig(FaultConfig{})
	if _, err := fs.Info("casablanca"); err != nil {
		t.Fatalf("Info after heal: %v", err)
	}
}
