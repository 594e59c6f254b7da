package mtp

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Frame is one in-order delivered media frame. The Payload is only valid
// for the duration of the deliver callback — the receiver recycles packet
// buffers — so consumers that keep frame data must copy it.
type Frame struct {
	Seq     uint32
	TS      time.Duration
	Key     bool
	Payload []byte
}

// RecvStats summarizes reception quality — the measurable side of the
// paper's Table 1 row "delay and jitter control".
type RecvStats struct {
	Received   int
	Delivered  int
	Lost       int
	Duplicates int
	Reordered  int
	Bytes      int64
	// JitterMicro is the RFC 3550 smoothed interarrival jitter estimate,
	// in microseconds. Only a paced stream's timestamps are media time, so
	// an unpaced stream (every TS zero) leaves it 0.
	JitterMicro int64
	// Resyncs counts deliberate sequence discontinuities (FlagSync): seeks
	// and non-zero stream starts, which are not loss.
	Resyncs int
	// FeedbackSent counts the feedback reports emitted toward the sender.
	FeedbackSent int
	Elapsed      time.Duration
}

// DeliveryRatio returns delivered / (delivered + lost).
func (s RecvStats) DeliveryRatio() float64 {
	total := s.Delivered + s.Lost
	if total == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(total)
}

// ReceiverConfig tunes the reorder buffer.
type ReceiverConfig struct {
	// Window is the maximum number of out-of-order packets buffered before
	// the receiver declares the gap lost and moves on. Default 32.
	Window int
	// ExpectedStreamID, when nonzero, discards packets of other streams.
	ExpectedStreamID uint32
	// FeedbackEvery, when > 0, sends a Feedback report back through conn
	// after every FeedbackEvery delivered frames (and once at EOS): the
	// receiver side of MTP's credit-based adaptive delivery. The report is
	// marshalled into a buffer reused across sends, so conn.Send must not
	// retain it (the standard PacketConn contract). 0 disables feedback.
	FeedbackEvery int
}

// packetPool recycles reorder-buffer packets (struct + payload backing
// array) so a steady stream allocates nothing per packet.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// clonePacket copies p into a pooled packet; the pooled payload backing
// array is reused across streams.
func clonePacket(p *Packet) *Packet {
	//xmovie:pool-escape ownership transfers to the reorder buffer; releasePacket pools it after delivery
	cp := packetPool.Get().(*Packet)
	cp.Flags = p.Flags
	cp.StreamID = p.StreamID
	cp.Seq = p.Seq
	cp.TSMicro = p.TSMicro
	cp.Payload = append(cp.Payload[:0], p.Payload...)
	return cp
}

// releasePacket returns a reorder-buffer packet to the pool once its frame
// has been delivered.
//
//xmovie:pool-put
func releasePacket(p *Packet) {
	packetPool.Put(p)
}

// ReceiveStream consumes packets from conn until an EOS marker (or conn
// error), delivering frames in sequence order to deliver (which may be
// nil). Frames lost on the path are skipped — MTP never retransmits.
//
// The hot path is copy-free: an in-order packet's payload is handed to
// deliver directly from the conn's receive buffer; only out-of-order
// packets are buffered, in pooled packets recycled after delivery.
func ReceiveStream(conn PacketConn, cfg ReceiverConfig, deliver func(Frame)) (RecvStats, error) {
	var stats RecvStats
	if cfg.Window == 0 {
		cfg.Window = 32
	}
	start := time.Now()
	next := uint32(0)
	pending := make(map[uint32]*Packet)
	eosSeq := int64(-1)
	// syncBase remembers the last resync target so reordered duplicates of
	// one FlagSync burst (the sender marks syncRepeats consecutive frames)
	// do not trigger a second, backward resync.
	syncBase := int64(-1)

	var lastArrival time.Time
	var lastTS uint64
	haveLast := false
	// jitter16 is the jitter estimate in ns, scaled by 16 (RFC 3550 A.8),
	// so the 1/16 gain loses nothing to integer truncation.
	var jitter16 int64

	// Feedback: reports are marshalled into one buffer reused across
	// sends — conn.Send must not retain it (PacketConn contract).
	var fbBuf []byte
	var fbSeq uint32
	lastFBProgress := 0
	streamID := cfg.ExpectedStreamID
	sendFeedback := func() {
		if cfg.FeedbackEvery <= 0 {
			return
		}
		fb := Feedback{
			NextSeq:   next,
			Delivered: uint32(stats.Delivered),
			Lost:      uint32(stats.Lost),
			Window:    uint32(cfg.Window),
		}
		p := Packet{Flags: FlagFB, StreamID: streamID, Seq: fbSeq}
		fbSeq++
		var err error
		fbBuf, err = p.Marshal(fbBuf[:0])
		if err != nil {
			return
		}
		fbBuf = fb.appendPayload(fbBuf)
		if conn.Send(fbBuf) == nil {
			stats.FeedbackSent++
		}
	}
	// maybeFeedback reports after every FeedbackEvery frames of progress —
	// delivered or declared lost, so feedback keeps flowing (and keeps
	// granting credit) even when the sender is dropping heavily.
	maybeFeedback := func() {
		if cfg.FeedbackEvery <= 0 {
			return
		}
		if progress := stats.Delivered + stats.Lost; progress-lastFBProgress >= cfg.FeedbackEvery {
			lastFBProgress = progress
			sendFeedback()
		}
	}

	deliverPacket := func(p *Packet) {
		if deliver != nil {
			deliver(Frame{
				Seq:     p.Seq,
				TS:      time.Duration(p.TSMicro) * time.Microsecond,
				Key:     p.Flags&FlagKey != 0,
				Payload: p.Payload,
			})
		}
		stats.Delivered++
		stats.Bytes += int64(len(p.Payload))
	}

	// flush drains consecutively buffered packets starting at next.
	flush := func() {
		for {
			p, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			deliverPacket(p)
			releasePacket(p)
			next++
		}
	}

	var pktBuf Packet
	for {
		data, err := conn.Recv()
		if err != nil {
			stats.Elapsed = time.Since(start)
			return stats, fmt.Errorf("mtp: recv: %w", err)
		}
		p := &pktBuf
		if err := p.Unmarshal(data); err != nil {
			// Not an MTP packet; ignore, as a real receiver must on a
			// shared port.
			continue
		}
		if cfg.ExpectedStreamID != 0 && p.StreamID != cfg.ExpectedStreamID {
			continue
		}
		if p.Flags&FlagFB != 0 {
			// Feedback travels receiver→sender; one seen here (a looped
			// or misdirected report) is not media data.
			continue
		}
		streamID = p.StreamID
		arrival := time.Now()
		if p.Flags&FlagEOS != 0 {
			if eosSeq < 0 || int64(p.Seq) < eosSeq {
				eosSeq = int64(p.Seq)
			}
			if p.Flags&FlagSync != 0 && int64(next) != eosSeq {
				// The jump to EOS is deliberate (a seek straight to the
				// end): deliver what arrived, count nothing as lost.
				flushUpTo(uint32(eosSeq), pending, &stats, deliverPacket, &next, false)
				stats.Resyncs++
			}
			// Everything before EOS that never arrived is lost.
			if int64(next) < eosSeq {
				flushUpTo(uint32(eosSeq), pending, &stats, deliverPacket, &next, true)
			}
			sendFeedback()
			stats.Elapsed = time.Since(start)
			return stats, nil
		}
		if p.Flags&FlagSync != 0 && p.Seq != next {
			// Deliberate discontinuity (seek, or a stream starting past
			// zero): resynchronize instead of accounting loss, and drop
			// whatever the reorder buffer held from before the jump —
			// unless this packet is a reordered member of the burst we
			// already resynchronized on.
			d := int64(p.Seq) - syncBase
			inBurst := syncBase >= 0 && d > -syncRepeats && d < syncRepeats
			if !inBurst {
				for seq, bp := range pending {
					delete(pending, seq)
					releasePacket(bp)
				}
				next = p.Seq
				syncBase = int64(p.Seq)
				stats.Resyncs++
			}
		}
		if p.Flags&FlagSkip != 0 && int32(p.Seq-next) > 0 {
			// The gap below this packet is sender-intentional (adaptive
			// dropping): deliver whatever the reorder buffer holds below
			// it, account the holes as lost, and move on at once.
			flushUpTo(p.Seq, pending, &stats, deliverPacket, &next, true)
		}
		stats.Received++
		// Interarrival jitter (RFC 3550 §6.4.1, in A.8's fixed-point
		// form), from arrival stamps in ns.
		if haveLast && (p.TSMicro != 0 || lastTS != 0) {
			d := arrival.Sub(lastArrival).Nanoseconds() -
				(int64(p.TSMicro)-int64(lastTS))*int64(time.Microsecond)
			if d < 0 {
				d = -d
			}
			jitter16 += d - (jitter16+8)>>4
			stats.JitterMicro = (jitter16 >> 4) / int64(time.Microsecond)
		}
		haveLast = true
		lastArrival, lastTS = arrival, p.TSMicro

		switch {
		case p.Seq == next:
			// In-order: deliver straight from the receive buffer.
			deliverPacket(p)
			next++
			flush()
		case p.Seq > next:
			if _, dup := pending[p.Seq]; dup {
				stats.Duplicates++
				continue
			}
			stats.Reordered++
			pending[p.Seq] = clonePacket(p)
			if len(pending) > cfg.Window {
				// Give up on the gap: advance to the earliest buffered.
				lowest := lowestKey(pending)
				stats.Lost += int(lowest - next)
				next = lowest
				flush()
			}
		default: // p.Seq < next
			stats.Duplicates++
		}
		maybeFeedback()
	}
}

// flushUpTo delivers buffered packets below the given sequence in order
// and advances next to it. countLost books the holes as loss (EOS and
// drop-gap handling); a sync-driven flush passes false — the gap was a
// deliberate jump, not loss.
func flushUpTo(upTo uint32, pending map[uint32]*Packet, stats *RecvStats, deliverPacket func(*Packet), next *uint32, countLost bool) {
	keys := make([]uint32, 0, len(pending))
	for k := range pending {
		if k < upTo {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if countLost {
			stats.Lost += int(k - *next)
		}
		p := pending[k]
		delete(pending, k)
		deliverPacket(p)
		releasePacket(p)
		*next = k + 1
	}
	if *next < upTo {
		if countLost {
			stats.Lost += int(upTo - *next)
		}
		*next = upTo
	}
}

func lowestKey(m map[uint32]*Packet) uint32 {
	first := true
	var low uint32
	for k := range m {
		if first || k < low {
			low = k
			first = false
		}
	}
	return low
}
