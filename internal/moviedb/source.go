package moviedb

import (
	"fmt"
	"io"
	"time"
)

// FrameSource is a lazy, bounded-memory iterator over a movie's frames —
// the one contract between the data plane and what it streams from: the
// mtp stream sender reads every source through it, with no optional
// extension to probe for. Sources materialize at most a small chunk window,
// so a feature-length movie never has to exist in memory as a whole.
//
// Movies are readable while appendable. A source opened on a movie with an
// open recording session (Store.Record) follows the growing tail: history
// is replayed from backing storage, and on reaching the live edge Next
// BLOCKS until the next frame is appended — published zero-copy through
// the movie's LiveWindow — instead of returning io.EOF. The source hands
// off between history and tail at the boundary frame with no gap and no
// duplicate. Next returns io.EOF only once the movie is sealed (the last
// recording session closed) and every frame has been returned, or after
// CancelWait. Sources over a fixed set of frames never wait: their
// CancelWait does nothing and their TakeWaited is always zero.
//
// Sources are single-consumer: one source drives one stream. Open a movie
// again for a second concurrent stream.
type FrameSource interface {
	// Len returns the total number of frames. For a live movie this is
	// the length at the moment of the call and grows between calls.
	Len() int64
	// Pos returns the index of the frame the next Next call will return.
	Pos() int64
	// Next returns the next frame and advances the position, or io.EOF
	// when the movie is exhausted. On a live movie, Next blocks at the
	// live edge until the frame exists, the movie seals, or the wait is
	// canceled.
	//
	// The returned slice is only valid until the next Next, NextBatch,
	// SeekTo or Close call on the same source — sources recycle their chunk
	// buffers, so a consumer that keeps frame data must copy it. (This is
	// the same lifetime contract the MTP layer imposes end to end: a conn's
	// SendBatch must consume the payload before returning, so a frame can
	// travel from the chunk cache to the kernel without ever being
	// re-copied in user space. Store-backed sources return slices pointing
	// straight into the immutable cache chunk or live-window ring frame;
	// neither the source, the sender, nor the conn may write into them.)
	Next() ([]byte, error)
	// NextBatch returns up to max consecutive frames that are available
	// right now from resident memory — the rest of a loaded chunk, or
	// stored in-memory frames — and advances the position past them. It
	// never blocks, never performs I/O and never waits at the live edge:
	// when nothing is resident it returns an empty batch and the caller
	// reads the next frame with Next. Every returned frame stays valid
	// until the next Next, NextBatch, SeekTo or Close call (they alias one
	// resident chunk), which is what lets a sender hand the whole batch to
	// its conn as one write.
	NextBatch(max int) [][]byte
	// SeekTo repositions the source so the next Next returns frame pos.
	// pos == Len() is valid; the next Next returns io.EOF — or, on a live
	// movie, waits at the edge for frame pos to be appended.
	SeekTo(pos int64) error
	// CancelWait aborts any current or future wait at the live edge, making
	// Next return io.EOF instead. It is safe to call from any goroutine —
	// the hook the SPA uses to unwedge a stream during Stop/Drain.
	CancelWait()
	// TakeWaited returns — and resets — the time Next spent blocked at the
	// live edge since the previous call. It is safe to call while Next
	// blocks on another goroutine. A paced sender books that time like a
	// pause: the frame did not exist yet, so waiting for it is not the
	// stream running late.
	TakeWaited() time.Duration
	// Close releases the source's buffers and cancels any wait at the
	// live edge. The source must not be used afterwards.
	Close() error
}

// fixedFrames implements the live-edge half of FrameSource for sources over
// a fixed set of frames: they never wait, so there is nothing to cancel or
// to credit.
type fixedFrames struct{}

func (fixedFrames) CancelWait()               {}
func (fixedFrames) TakeWaited() time.Duration { return 0 }

// Content is a movie's frame payload. Immutable implementations
// (SliceContent, SynthContent) carry fixed frames; store-backed
// implementations (MemStore, DiskStore) track their movie, so Len grows
// while the movie records and Open returns tail-following sources. All
// implementations are safe to Open concurrently.
type Content interface {
	// Len returns the total number of frames (at the moment of the call,
	// for a live movie).
	Len() int64
	// Open returns a fresh FrameSource positioned at frame 0.
	Open() FrameSource
}

// SliceContent adapts materialized frames to Content — the thin adapter
// that keeps the historical [][]byte movie representation working on the
// lazy play path.
type SliceContent [][]byte

var _ Content = SliceContent(nil)

// Len implements Content.
func (c SliceContent) Len() int64 { return int64(len(c)) }

// Open implements Content.
func (c SliceContent) Open() FrameSource { return &sliceSource{frames: c} }

// sliceSource iterates over already-materialized frames. Next hands out
// the stored frame directly (the memory already exists; copying it would
// only add cost), so the slices it returns outlive the source — a strictly
// weaker demand on consumers than the FrameSource contract requires.
type sliceSource struct {
	fixedFrames
	frames [][]byte
	pos    int64
	batch  [][]byte // reused NextBatch result
}

func (s *sliceSource) Len() int64 { return int64(len(s.frames)) }
func (s *sliceSource) Pos() int64 { return s.pos }

func (s *sliceSource) Next() ([]byte, error) {
	if s.pos >= int64(len(s.frames)) {
		return nil, io.EOF
	}
	f := s.frames[s.pos]
	s.pos++
	return f, nil
}

// NextBatch implements FrameSource: stored frames are all resident, so up
// to max of them are handed out at once for a single batched write. The
// batch slice is reused across calls.
func (s *sliceSource) NextBatch(max int) [][]byte {
	n := int64(len(s.frames)) - s.pos
	if int64(max) < n {
		n = int64(max)
	}
	if n <= 0 {
		return nil
	}
	s.batch = append(s.batch[:0], s.frames[s.pos:s.pos+n]...)
	s.pos += n
	return s.batch
}

func (s *sliceSource) SeekTo(pos int64) error {
	if pos < 0 || pos > int64(len(s.frames)) {
		return fmt.Errorf("moviedb: seek to %d outside 0..%d", pos, len(s.frames))
	}
	s.pos = pos
	return nil
}

func (s *sliceSource) Close() error {
	s.frames = nil
	return nil
}

// ResidentReporter is implemented by sources that can report the peak
// size in bytes of their resident frame buffers. Tests use it to assert
// the chunk-window memory bound on the play path.
type ResidentReporter interface {
	MaxResident() int
}
