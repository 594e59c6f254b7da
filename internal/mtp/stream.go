package mtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/timewheel"
)

// ErrFrameUnavailable is returned (possibly wrapped) by a source's Next when
// the current frame could not be produced in time — a slow or wedged storage
// read behind a bounded-read wrapper. The source must have consumed the
// frame's position (Pos advanced past it) before returning it. The sender
// degrades instead of aborting: the frame is booked as an adaptive drop and
// the next transmitted frame carries FlagSkip, so one slow read costs the
// receiver one lost frame, not the stream.
var ErrFrameUnavailable = errors.New("mtp: frame unavailable")

// BatchSource is moviedb.FrameSource's NextBatch on its own. Nothing in this
// module uses it: it stays declared only because the benchmark harness
// (bench/layers.go) asserts a memory source to it by this name.
type BatchSource interface {
	NextBatch(max int) [][]byte
}

// Feedback is the receiver→sender report carried in FlagFB packets: the
// receiver's cumulative progress and its credit grant. It is MTP's only
// upstream traffic — a few octets every FeedbackEvery frames — and it
// never triggers retransmission; the sender uses it solely to decide which
// frames not to send (XMovie-style rate adaptation: late video is worse
// than lost video).
//
// Buffer lifetime: feedback packets obey the conn contracts like any other
// packet. The receiver marshals reports into one buffer reused across sends
// (conn.Send must not retain it), and the sender parses them in place out
// of TryRecv's buffer (valid only until the next receive), so neither side
// allocates per report.
type Feedback struct {
	// NextSeq is the receiver's next expected in-order sequence number —
	// cumulative progress in sequence space.
	NextSeq uint32
	// Delivered and Lost are the receiver's running frame counters.
	Delivered uint32
	Lost      uint32
	// Window is the receiver's credit grant: how many packets beyond
	// NextSeq it is prepared to absorb.
	Window uint32
}

// feedbackSize is the fixed FlagFB payload length.
const feedbackSize = 16

// syncRepeats is how many consecutive transmitted frames carry FlagSync
// after a discontinuity, so the announcement survives loss like the EOS
// marker does. The receiver uses the same constant to recognize reordered
// members of one burst and not resync twice.
const syncRepeats = 3

// maxCoalesce bounds how many frames the producer fetches at once and so
// how many due frames one write may coalesce. It caps batch memory (headers
// live in one fixed arena), bounds how much a seek discards, and stays under
// typical sendmmsg sweet spots.
const maxCoalesce = 32

// appendFeedbackPayload writes the 16-octet feedback encoding.
func (fb *Feedback) appendPayload(dst []byte) []byte {
	var b [feedbackSize]byte
	binary.BigEndian.PutUint32(b[0:], fb.NextSeq)
	binary.BigEndian.PutUint32(b[4:], fb.Delivered)
	binary.BigEndian.PutUint32(b[8:], fb.Lost)
	binary.BigEndian.PutUint32(b[12:], fb.Window)
	return append(dst, b[:]...)
}

// ParseFeedback decodes a FlagFB packet's payload in place. It reads from
// the packet's payload (which aliases the conn's receive buffer) and
// copies everything it needs into the returned struct, so the result
// outlives the buffer.
func ParseFeedback(p *Packet) (Feedback, bool) {
	if p.Flags&FlagFB == 0 || len(p.Payload) < feedbackSize {
		return Feedback{}, false
	}
	return Feedback{
		NextSeq:   binary.BigEndian.Uint32(p.Payload[0:]),
		Delivered: binary.BigEndian.Uint32(p.Payload[4:]),
		Lost:      binary.BigEndian.Uint32(p.Payload[8:]),
		Window:    binary.BigEndian.Uint32(p.Payload[12:]),
	}, true
}

// Throttle regulates a sender's outbound bandwidth. Reserve books n bytes
// against the budget and returns how long the caller must wait before
// sending them (0 = send now); it never refuses. Implementations must be
// safe for concurrent use — one throttle is typically shared by every
// stream of a tenant, so the streams split the budget between them.
// qos.Limiter is the token-bucket implementation.
type Throttle interface {
	Reserve(n int) time.Duration
}

// StreamConfig tunes one StreamSender.
type StreamConfig struct {
	StreamID uint32
	// FrameRate paces transmission; 0 sends as fast as possible.
	FrameRate int
	// EOSRepeats re-sends the end-of-stream marker to survive loss
	// (0 = 3; negative suppresses EOS).
	EOSRepeats int
	// Window enables credit-based adaptive delivery: the sender keeps at
	// most Window transmitted frames unacknowledged by receiver feedback
	// (capped further by the receiver's own credit grant once reported).
	// A frame whose send slot arrives with no credit — or that is already
	// more than one period overdue — is dropped (its sequence number is
	// consumed, so the receiver accounts it as lost) instead of being
	// sent late. 0 disables adaptation: every frame is sent.
	//
	// Window > 0 assumes the receiver emits feedback
	// (ReceiverConfig.FeedbackEvery); lost or absent feedback shrinks the
	// sender's view of its credit, which is exactly the congestion signal
	// that triggers dropping.
	Window int
	// Throttle, when non-nil, caps outbound bandwidth: each transmitted
	// frame reserves its bytes before the send, and the imposed wait shifts
	// the pacing schedule like a pause — a capped stream slows down, its
	// frames are never booked as late and never trigger adaptive drops.
	// Dropped frames reserve nothing.
	Throttle Throttle
	// End bounds the play (0 = none): no frame at or past End is fetched,
	// and reaching End ends the stream as the end of the movie does, however
	// far a recording movie grows. Seeks stay movie-wide; one to End or
	// beyond ends the stream.
	End int64
}

// StreamStats summarizes one stream transmission, including the adaptive
// path's decisions.
type StreamStats struct {
	// Sent counts frames actually transmitted; Dropped counts frames the
	// adaptive path skipped (no credit, or overdue). Sent + Dropped is the
	// number of frames consumed from the source.
	Sent    int
	Dropped int
	// Late counts transmitted frames that left more than one period past
	// their deadline.
	Late  int
	Bytes int64
	// Feedback counts receiver reports processed.
	Feedback int
	// Pos is the source position reached (next frame index).
	Pos int64
	// Paused reports that the stream is paused (or was, when it ended).
	Paused bool
	// Done reports normal completion (EOF reached, not stopped/errored).
	Done    bool
	Elapsed time.Duration
}

// StreamSender transmits a moviedb.FrameSource over MTP with live control:
// it can be paused, resumed, repositioned and stopped from other goroutines
// while Run is in flight, and it adapts its delivery to receiver feedback.
// It is the transmission engine a Stream Provider Agent drives — one sender
// per stream.
//
// The work is split in two. The PRODUCER is Run's goroutine: it owns the
// source and does everything that may block — a chunk load, a wait at the
// live edge, a bounded read — and is woken once per batch, not once per
// frame. The EMITTER is the state under mu plus emit, the one copy of the
// per-frame code (pacing, feedback, credit, throttle, marshal, send). It is
// stepped by whoever has cause to: the shared wheel's tick goroutine when a
// departure comes due, the producer when it submits a batch (a frame that
// is already due — the first of a play, the first after a seek — leaves on
// the spot, without a hop), and Resume. An unpaced stream never reaches the
// wheel: its producer emits each batch as it submits it.
type StreamSender struct {
	conn   StreamConn
	cfg    StreamConfig
	period time.Duration

	stopOnce sync.Once
	stopCh   chan struct{}
	// wake rouses the producer: the emitter drained the held batch, or a
	// control op changed what to fetch. One pending token covers any number
	// of reasons.
	wake chan struct{}
	// task is the emitter's entry on the shared wheel, armed for the held
	// batch's next departure.
	task timewheel.Task

	mu sync.Mutex
	// batch holds the frames fetched and not yet departed. They alias the
	// source's buffers, which stay valid because the producer makes no
	// source call while any are held; one backs a batch of a single Next.
	batch [][]byte
	one   [1][]byte
	// Frame slot departs at epoch + slot*period. Time the schedule must not
	// count — a pause, a cap wait, a wait at the live edge — moves the epoch
	// forward; frozen is when the clock was stopped (zero while it runs).
	epoch  time.Time
	slot   int64
	frozen time.Time
	// A throttle grant that imposed a wait: the first reserved frames of the
	// batch are paid for and leave at capUntil.
	capUntil time.Time
	reserved int
	seekTo   int64 // reposition the producer has yet to carry out; -1 when none
	// A sequence discontinuity is announced on the next syncRepeats
	// transmitted frames, not just one: FlagSync is what keeps a seek from
	// being misread as loss, so it must survive a lossy path the same way
	// the EOS marker does (only the first arrival resynchronizes; the rest
	// are in-order no-ops at the receiver).
	syncLeft int
	// skipPending marks that the next transmitted frame follows a drop gap.
	// inflight tracks the sequence numbers actually transmitted and not yet
	// covered by receiver feedback — dropped frames consume sequence space
	// but no credit.
	skipPending bool
	inflight    []uint32
	fbNext      uint32 // latest receiver progress (next expected seq)
	fbWindow    uint32 // latest receiver credit grant (0 = none seen)
	err         error  // first marshal or send failure, at frame errSeq; ends the stream
	errSeq      int64
	// stats.Pos is the emitter's cursor, the next frame to depart, and
	// stats.Paused is whether the stream is paused.
	stats StreamStats

	// hdrs holds a batch's marshalled headers; pkts slices into it.
	hdrs [maxCoalesce * HeaderSize]byte
	pkts [maxCoalesce]PacketVec
}

// NewStreamSender prepares a sender; Run performs the transmission.
func NewStreamSender(conn StreamConn, cfg StreamConfig) *StreamSender {
	switch {
	case cfg.EOSRepeats == 0:
		cfg.EOSRepeats = 3
	case cfg.EOSRepeats < 0:
		cfg.EOSRepeats = 0
	}
	s := &StreamSender{conn: conn, cfg: cfg, stopCh: make(chan struct{}), wake: make(chan struct{}, 1), seekTo: -1}
	if cfg.FrameRate > 0 {
		s.period = time.Second / time.Duration(cfg.FrameRate)
	}
	if cfg.Window > 0 {
		s.inflight = make([]uint32, 0, cfg.Window)
	}
	s.task.Fn = s.tick
	return s
}

// Pause suspends transmission at once: frames already fetched stay held and
// the pacing clock stops. Idempotent.
func (s *StreamSender) Pause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stats.Paused {
		s.stats.Paused = true
		if s.frozen.IsZero() {
			s.frozen = time.Now()
		}
	}
}

// Resume continues a paused transmission; paused time shifts the pacing
// schedule rather than producing a burst of "late" frames, and a held frame
// that is due leaves before Resume returns. Idempotent.
func (s *StreamSender) Resume() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stats.Paused {
		return
	}
	s.stats.Paused = false
	s.step()
	s.rouse()
}

// SeekTo repositions the live stream: the frames held for the old position
// are discarded at once and the stream continues from frame pos without
// restarting — the first frame sent afterwards carries FlagSync so the
// receiver resynchronizes instead of counting the jump as loss. The
// producer carries the seek out: it validates the position against the
// source and restarts the pacing epoch (a producer parked at the live edge
// does so when the frame it waits for arrives).
func (s *StreamSender) SeekTo(pos int64) {
	if pos < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seekTo = pos
	s.batch = nil
	// A cap wait for discarded frames is void; only a pause keeps the clock
	// stopped.
	s.capUntil, s.reserved = time.Time{}, 0
	if !s.stats.Paused {
		s.frozen = time.Time{}
	}
	s.syncLeft = syncRepeats
	// The sync covers any drop gap, and the old in-flight frames belong to
	// the abandoned segment. Sequence space is monotone within a segment,
	// but a seek moves it arbitrarily.
	s.skipPending = false
	s.inflight = s.inflight[:0]
	s.stats.Pos = pos
	s.fbNext = uint32(pos)
	s.rouse()
}

// Stop aborts the transmission: no held frame departs once Stop has
// returned, and Run returns after terminating the stream on the wire. Safe
// to call from any goroutine, idempotent.
func (s *StreamSender) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batch = nil
}

// Position returns the source position reached so far.
func (s *StreamSender) Position() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Pos
}

// Stats returns a snapshot of the transmission counters.
func (s *StreamSender) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// stopped reports whether Stop was called.
func (s *StreamSender) stopped() bool {
	select {
	case <-s.stopCh:
		return true
	default:
		return false
	}
}

// rouse wakes the producer without blocking.
func (s *StreamSender) rouse() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// drainFeedback consumes any pending receiver reports without blocking.
// Caller holds s.mu.
func (s *StreamSender) drainFeedback() {
	var p Packet
	for {
		data, ok := s.conn.TryRecv()
		if !ok {
			return
		}
		if p.Unmarshal(data) != nil || p.Flags&FlagFB == 0 || p.StreamID != s.cfg.StreamID {
			continue
		}
		// Accept the newest report unconditionally and let the credit check
		// clamp negative spans.
		if fb, ok := ParseFeedback(&p); ok {
			s.fbNext, s.fbWindow = fb.NextSeq, fb.Window
			s.stats.Feedback++
		}
	}
}

// Run transmits src until its end (or cfg.End), Stop, or a conn error,
// honouring pause/resume/seek and — when cfg.Window > 0 — receiver credit.
// It blocks for the stream's duration as the stream's producer; control
// methods are called from other goroutines. The source is advanced in
// place; Seq equals source frame index throughout, so StartSeq-style
// resumption is just opening the source at the right position.
func (s *StreamSender) Run(src moviedb.FrameSource) (StreamStats, error) {
	began := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = began
	s.stats.Pos = src.Pos()
	s.fbNext = uint32(s.stats.Pos)
	if s.stats.Pos != 0 {
		s.syncLeft = syncRepeats
	}
	for {
		switch {
		case s.stopped():
			return s.finish(began, nil)
		case s.err != nil:
			return s.finish(began, fmt.Errorf("mtp: send seq %d: %w", s.errSeq, s.err))
		case s.seekTo >= 0:
			pos := s.seekTo
			s.seekTo = -1
			s.mu.Unlock()
			err := src.SeekTo(pos)
			s.mu.Lock()
			if err != nil {
				return s.finish(began, fmt.Errorf("mtp: seek: %w", err))
			}
			// The schedule starts over at the new position; a pause in force
			// counts from here.
			s.epoch, s.slot = time.Now(), 0
			if !s.frozen.IsZero() {
				s.frozen = s.epoch
			}
		case len(s.batch) > 0 || s.stats.Paused:
			// Nothing to fetch: the emitter still holds frames, or the clock
			// stands still and a fetch would only be held (and a wait at the
			// live edge credited on top of the pause).
			s.mu.Unlock()
			select {
			case <-s.wake:
			case <-s.stopCh:
			}
			s.mu.Lock()
		default:
			s.mu.Unlock()
			batch, err := s.fetch(src)
			waited := src.TakeWaited()
			s.mu.Lock()
			if s.seekTo >= 0 || s.stopped() {
				// A seek or a stop overtook the fetch; what it returned —
				// frames, the end of the movie, a canceled wait — is void.
				continue
			}
			if waited > 0 {
				// Time blocked at the live edge shifts the pacing schedule
				// the way a pause does: the frame did not exist yet, so the
				// stream is not late. A pause that began during the wait
				// counts from here, not twice.
				s.epoch = s.epoch.Add(waited)
				if !s.frozen.IsZero() {
					s.frozen = time.Now()
				}
			}
			switch {
			case err == io.EOF:
				return s.finish(began, nil)
			case errors.Is(err, ErrFrameUnavailable):
				// Graceful degradation: the source consumed the frame's
				// position but could not produce its bytes in time. Book it
				// like an adaptive drop and keep the stream alive.
				s.drop()
			case err != nil:
				return s.finish(began, fmt.Errorf("mtp: frame source: %w", err))
			default:
				s.batch = batch
				s.step()
			}
		}
	}
}

// fetch reads the next frames below cfg.End: every resident one up to
// maxCoalesce, else a single Next, which may block. It returns io.EOF at
// End. Called by the producer without s.mu.
func (s *StreamSender) fetch(src moviedb.FrameSource) ([][]byte, error) {
	n := int64(maxCoalesce)
	if s.cfg.End > 0 {
		if n = min(n, s.cfg.End-src.Pos()); n <= 0 {
			return nil, io.EOF
		}
	}
	if batch := src.NextBatch(int(n)); len(batch) > 0 {
		return batch, nil
	}
	f, err := src.Next()
	if err != nil {
		return nil, err
	}
	s.one[0] = f
	return s.one[:], nil
}

// finish terminates the stream on the wire even when aborted, so the
// receiver does not wait for frames that will never come. A not-yet-
// announced discontinuity (a seek straight to EOF sends no further data
// frame) rides on the EOS markers as FlagSync, so the receiver ends cleanly
// instead of booking the jump as loss. Caller holds s.mu.
func (s *StreamSender) finish(began time.Time, err error) (StreamStats, error) {
	// Whatever is still held is abandoned; a tick already dispatched finds
	// nothing to send, and the wheel keeps no reference to the stream.
	s.batch, s.capUntil = nil, time.Time{}
	timewheel.Default().Cancel(&s.task)
	eos := Packet{StreamID: s.cfg.StreamID, Seq: uint32(s.stats.Pos), Flags: FlagEOS}
	if s.syncLeft > 0 {
		eos.Flags |= FlagSync
	}
	s.pkts[0].Hdr, s.pkts[0].Payload = eos.appendHeader(s.hdrs[:0]), nil
	for i := 0; i < s.cfg.EOSRepeats; i++ {
		if serr := s.conn.SendBatch(s.pkts[:1]); serr != nil {
			if err == nil {
				err = fmt.Errorf("mtp: send EOS: %w", serr)
			}
			break
		}
	}
	s.stats.Elapsed = time.Since(began)
	s.stats.Done = err == nil && !s.stopped()
	return s.stats, err
}

// tick is the emitter's wheel callback.
func (s *StreamSender) tick() {
	s.mu.Lock()
	s.step()
	s.mu.Unlock()
}

// step runs the emitter and has the wheel call back at the next departure.
// Caller holds s.mu.
func (s *StreamSender) step() {
	if next := s.emit(time.Now()); !next.IsZero() {
		timewheel.Default().At(next, &s.task)
	}
}

// emit sends every held frame whose departure has come and returns when to
// run again (zero: not before the producer or a control op says so). This
// is the per-frame path of every stream, paced or not. Caller holds s.mu.
//
//xmovie:hotpath
func (s *StreamSender) emit(now time.Time) time.Time {
	if s.stats.Paused || s.err != nil {
		return time.Time{}
	}
	if now.Before(s.capUntil) {
		return s.capUntil
	}
	if !s.frozen.IsZero() {
		// Credit the measured standstill, not the requested one: timer
		// overshoot would otherwise accumulate as phantom lateness.
		s.epoch = s.epoch.Add(now.Sub(s.frozen))
		s.frozen = time.Time{}
	}
	for len(s.batch) > 0 {
		var overdue time.Duration
		if s.period > 0 {
			due := s.epoch.Add(time.Duration(s.slot) * s.period)
			if now.Before(due) {
				return due
			}
			overdue = now.Sub(due)
		}
		s.drainFeedback()
		n := s.reserved
		s.reserved = 0
		if n == 0 {
			// Coalesce: every held frame whose own slot has passed leaves
			// in one write — an unpaced stream batches maximally, an
			// on-schedule paced one sends frame by frame.
			n = len(s.batch)
			if s.period > 0 && int64(overdue/s.period) < int64(n-1) {
				n = 1 + int(overdue/s.period)
			}
			// Adaptive delivery: with a window configured, at most Window
			// transmitted frames may be unacknowledged by feedback. A frame
			// whose slot arrives with the window full — or already a full
			// period overdue — is dropped: its sequence number is consumed
			// (the next transmitted frame carries FlagSkip so the receiver
			// jumps the gap and accounts it as lost) but no credit is, so
			// congestion throttles transmission without wedging it.
			if s.cfg.Window > 0 {
				credit := s.credit()
				if credit <= 0 || (s.period > 0 && overdue > s.period) {
					s.drop()
					if s.batch = s.batch[1:]; len(s.batch) == 0 {
						s.rouse()
					}
					continue
				}
				if n > credit {
					n = credit
				}
			}
			// Bandwidth cap: reserve the frames' bytes; an imposed wait
			// stops the clock (like a pause) until the wheel calls back, so
			// a capped stream shifts its schedule instead of accumulating
			// lateness.
			if s.cfg.Throttle != nil {
				total := 0
				for _, f := range s.batch[:n] {
					total += len(f)
				}
				if total > 0 {
					if d := s.cfg.Throttle.Reserve(total); d > 0 {
						s.reserved, s.frozen, s.capUntil = n, now, now.Add(d)
						return s.capUntil
					}
				}
			}
		}
		if !s.send(n, overdue) {
			break
		}
	}
	return time.Time{}
}

// drop books the frame at the cursor as not sent: its slot and sequence
// number are consumed, and the next transmitted frame carries FlagSkip so the
// receiver jumps the gap and accounts it as lost.
func (s *StreamSender) drop() {
	s.slot++
	s.skipPending = true
	s.stats.Dropped++
	s.stats.Pos++
}

// credit prunes inflight against the newest feedback and returns how many
// more frames may be transmitted. The effective window is the configured
// one capped by the receiver's credit grant, once it has reported one.
func (s *StreamSender) credit() int {
	k := 0
	for _, q := range s.inflight {
		if int32(q-s.fbNext) >= 0 {
			s.inflight[k] = q
			k++
		}
	}
	s.inflight = s.inflight[:k]
	window := s.cfg.Window
	if s.fbWindow > 0 && int(s.fbWindow) < window {
		window = int(s.fbWindow)
	}
	return window - k
}

// send transmits the first n held frames, the first of them overdue by
// overdue, in one SendBatch and advances the cursor past them; false means
// the stream has failed. One header per frame goes into the arena, payloads
// stay untouched (they alias the source's resident chunk — the conn must
// consume them before returning). Caller holds s.mu.
//
//xmovie:hotpath
func (s *StreamSender) send(n int, overdue time.Duration) bool {
	pos := s.stats.Pos
	hdrs, pkts := s.hdrs[:0], s.pkts[:0]
	var total int64
	for j, f := range s.batch[:n] {
		p := Packet{StreamID: s.cfg.StreamID, Seq: uint32(pos + int64(j)), Payload: f}
		if s.cfg.FrameRate > 0 {
			p.TSMicro = uint64(pos+int64(j)) * uint64(time.Second/time.Microsecond) / uint64(s.cfg.FrameRate)
		}
		if s.syncLeft > 0 {
			p.Flags |= FlagSync
			s.syncLeft--
		}
		if j == 0 && s.skipPending {
			p.Flags |= FlagSkip
			s.skipPending = false
		}
		// A frame is late if it departs more than one period past its own
		// slot; member j's slot is j periods after the first's.
		if s.period > 0 && overdue-time.Duration(j)*s.period > s.period {
			s.stats.Late++
		}
		at := len(hdrs)
		var err error
		if hdrs, err = p.MarshalHeader(hdrs); err != nil {
			return s.fail(pos+int64(j), err)
		}
		pkts = append(pkts, PacketVec{Hdr: hdrs[at:], Payload: f})
		total += int64(len(f))
	}
	if err := s.conn.SendBatch(pkts); err != nil {
		return s.fail(pos, err)
	}
	if n > 1 {
		batchSends.Add(1)
		batchFrames.Add(int64(n))
	}
	vecSends.Add(int64(n))
	vecBytes.Add(total)
	if s.cfg.Window > 0 {
		for j := 0; j < n; j++ {
			s.inflight = append(s.inflight, uint32(pos+int64(j)))
		}
	}
	s.slot += int64(n)
	s.stats.Sent += n
	s.stats.Bytes += total
	s.stats.Pos += int64(n)
	if s.batch = s.batch[n:]; len(s.batch) == 0 {
		s.rouse()
	}
	return true
}

// fail records the stream's first marshal or send failure for the producer
// to report, and returns false.
func (s *StreamSender) fail(seq int64, err error) bool {
	s.err, s.errSeq = err, seq
	s.batch = nil
	s.rouse()
	return false
}
