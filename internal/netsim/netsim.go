// Package netsim simulates datagram network paths with configurable delay,
// jitter, loss and bandwidth.
//
// The paper runs its continuous-media stream protocol (XMovie MTP) over
// UDP/IP/FDDI; this package is the stand-in for that network so stream
// experiments are repeatable and loss-controllable: a Link delivers packets
// to the far end after a (possibly jittered) delay, drops them with a seeded
// probability, and enforces a serialization rate.
package netsim

import (
	"container/heap"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Config shapes one direction of a link.
type Config struct {
	// Delay is the fixed one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter].
	Jitter time.Duration
	// LossProb is the independent drop probability in [0, 1].
	LossProb float64
	// BitsPerSec, when > 0, models serialization: packets queue behind one
	// another at this rate.
	BitsPerSec int64
	// Seed makes loss and jitter deterministic. 0 means seed 1.
	Seed int64
	// MaxQueue bounds the in-flight packet count (tail drop). 0 = 4096.
	MaxQueue int
}

// Stats counts one endpoint's traffic.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64
	QueueDrop int64
	Bytes     int64
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("netsim: link closed")

// Endpoint is one side of a Link.
type Endpoint struct {
	link *Link
	// out is the transmit direction state owned by this endpoint.
	out *direction
	// in is the receive queue.
	in chan []byte
}

// direction carries packets one way.
type direction struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand

	// busyUntil models the serialization of previous packets.
	busyUntil time.Time
	inFlight  int
	stats     Stats
	dst       chan []byte

	// partUntil/partForever drop every packet while a partition holds.
	partUntil   time.Time
	partForever bool
	// spikeExtra is added to the propagation delay until spikeUntil.
	spikeExtra time.Duration
	spikeUntil time.Time
}

// Link is a bidirectional shaped path between two Endpoints.
type Link struct {
	a, b *Endpoint

	mu     sync.Mutex
	closed bool
	stopCh chan struct{}
	wg     sync.WaitGroup
	// wakeCh interrupts the pump's sleep when an earlier packet arrives.
	wakeCh  chan struct{}
	pending deliveryHeap
	seq     int64
}

type delivery struct {
	at  time.Time
	seq int64
	p   []byte
	dir *direction
}

type deliveryHeap []delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return
}
func (h deliveryHeap) peek() delivery     { return h[0] }
func (h *deliveryHeap) popHead() delivery { return heap.Pop(h).(delivery) }

// NewLink creates a link whose two directions are shaped by aToB and bToA.
func NewLink(aToB, bToA Config) (*Endpoint, *Endpoint, *Link) {
	l := &Link{stopCh: make(chan struct{}), wakeCh: make(chan struct{}, 1)}
	mk := func(cfg Config, dst chan []byte) *direction {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		cfg = normalize(cfg)
		return &direction{cfg: cfg, rng: rand.New(rand.NewSource(seed)), dst: dst}
	}
	inA := make(chan []byte, 4096)
	inB := make(chan []byte, 4096)
	a := &Endpoint{link: l, in: inA, out: mk(aToB, inB)}
	b := &Endpoint{link: l, in: inB, out: mk(bToA, inA)}
	l.a, l.b = a, b
	l.wg.Add(1)
	go l.pump()
	return a, b, l
}

// NewPerfectLink returns an unshaped (instant, lossless) link.
func NewPerfectLink() (*Endpoint, *Endpoint, *Link) {
	return NewLink(Config{}, Config{})
}

// normalize applies the Config zero-value defaults used at link creation.
func normalize(cfg Config) Config {
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4096
	}
	return cfg
}

// SetConfig replaces both directions' shaping at runtime; packets already
// scheduled keep their original delivery time. A nonzero Seed reseeds that
// direction's random stream; Seed 0 keeps the current one so loss/jitter
// sequences stay deterministic across reconfiguration.
func (l *Link) SetConfig(aToB, bToA Config) {
	for dir, cfg := range map[*direction]Config{l.a.out: aToB, l.b.out: bToA} {
		cfg = normalize(cfg)
		dir.mu.Lock()
		if cfg.Seed != 0 && cfg.Seed != dir.cfg.Seed {
			dir.rng = rand.New(rand.NewSource(cfg.Seed))
		}
		dir.cfg = cfg
		dir.mu.Unlock()
	}
}

// Partition drops every packet in both directions for the given duration,
// simulating a network split that heals on its own. d < 0 partitions until
// Heal; d == 0 heals immediately. Packets already in flight still arrive
// (they left before the cut).
func (l *Link) Partition(d time.Duration) {
	until := time.Now().Add(d)
	for _, dir := range []*direction{l.a.out, l.b.out} {
		dir.mu.Lock()
		dir.partForever = d < 0
		if d > 0 {
			dir.partUntil = until
		} else {
			dir.partUntil = time.Time{}
		}
		dir.mu.Unlock()
	}
}

// Heal ends a partition immediately.
func (l *Link) Heal() { l.Partition(0) }

// Spike adds extra propagation delay in both directions for the given
// duration — a transient latency spike that decays on its own.
func (l *Link) Spike(extra, d time.Duration) {
	until := time.Now().Add(d)
	for _, dir := range []*direction{l.a.out, l.b.out} {
		dir.mu.Lock()
		dir.spikeExtra = extra
		dir.spikeUntil = until
		dir.mu.Unlock()
	}
}

// partitioned reports whether the direction is currently cut. Caller holds
// dir.mu.
func (d *direction) partitioned(now time.Time) bool {
	return d.partForever || now.Before(d.partUntil)
}

// pump delivers scheduled packets when their time arrives.
func (l *Link) pump() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		if len(l.pending) == 0 {
			l.mu.Unlock()
			select {
			case <-l.wakeCh:
			case <-l.stopCh:
				return
			}
			continue
		}
		head := l.pending.peek()
		wait := time.Until(head.at)
		if wait > 0 {
			l.mu.Unlock()
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-l.wakeCh: // an earlier packet may have been scheduled
				timer.Stop()
			case <-l.stopCh:
				timer.Stop()
				return
			}
			continue
		}
		d := l.pending.popHead()
		l.mu.Unlock()
		d.dir.deliver(d.p)
	}
}

func (l *Link) wake() {
	select {
	case l.wakeCh <- struct{}{}:
	default:
	}
}

func (d *direction) deliver(p []byte) {
	d.mu.Lock()
	d.inFlight--
	dst := d.dst
	d.mu.Unlock()
	select {
	case dst <- p:
		d.mu.Lock()
		d.stats.Delivered++
		d.mu.Unlock()
	default:
		d.mu.Lock()
		d.stats.QueueDrop++
		d.mu.Unlock()
	}
}

// Send transmits p toward the peer endpoint. The packet is copied.
//
//xmovie:noretain p
func (e *Endpoint) Send(p []byte) error {
	return e.send(p, nil)
}

// SendBatch transmits each packet, Hdr followed by Payload, as one simulated
// datagram — the send of an mtp.StreamConn, whose mtp.PacketVec is this
// unnamed struct type (netsim cannot import mtp: mtp's tests import
// netsim). The model stays per packet: loss, queueing and serialization
// delay apply to each as they do to Send. Every slice is consumed — copied
// into the packet's delivery buffer — before the call returns, so the
// caller may immediately reuse its header arena and the payload's chunk.
// One copy is inherent here: the simulator must own the bytes it delivers
// later.
//
//xmovie:noretain pkts
func (e *Endpoint) SendBatch(pkts []struct{ Hdr, Payload []byte }) error {
	for _, p := range pkts {
		if err := e.send(p.Hdr, p.Payload); err != nil {
			return err
		}
	}
	return nil
}

// send is the shared Send/SendBatch body: a and b (b may be nil) form one
// datagram.
//
//xmovie:noretain a b
func (e *Endpoint) send(a, b []byte) error {
	l := e.link
	dir := e.out
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()

	dir.mu.Lock()
	size := len(a) + len(b)
	dir.stats.Sent++
	dir.stats.Bytes += int64(size)
	now := time.Now()
	if dir.partitioned(now) {
		dir.stats.Dropped++
		dir.mu.Unlock()
		return nil
	}
	if dir.cfg.LossProb > 0 && dir.rng.Float64() < dir.cfg.LossProb {
		dir.stats.Dropped++
		dir.mu.Unlock()
		return nil
	}
	if dir.inFlight >= dir.cfg.MaxQueue {
		dir.stats.QueueDrop++
		dir.mu.Unlock()
		return nil
	}
	depart := now
	if dir.cfg.BitsPerSec > 0 {
		txTime := time.Duration(int64(size) * 8 * int64(time.Second) / dir.cfg.BitsPerSec)
		if dir.busyUntil.After(now) {
			depart = dir.busyUntil
		}
		dir.busyUntil = depart.Add(txTime)
		depart = dir.busyUntil
	}
	arrive := depart.Add(dir.cfg.Delay)
	if dir.cfg.Jitter > 0 {
		arrive = arrive.Add(time.Duration(dir.rng.Int63n(int64(dir.cfg.Jitter) + 1)))
	}
	if dir.spikeExtra > 0 && now.Before(dir.spikeUntil) {
		arrive = arrive.Add(dir.spikeExtra)
	}
	dir.inFlight++
	dir.mu.Unlock()

	buf := make([]byte, size)
	copy(buf[copy(buf, a):], b)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.seq++
	heap.Push(&l.pending, delivery{at: arrive, seq: l.seq, p: buf, dir: dir})
	l.mu.Unlock()
	l.wake()
	return nil
}

// Recv returns the next delivered packet, blocking until one arrives or the
// link closes.
func (e *Endpoint) Recv() ([]byte, error) {
	select {
	case p := <-e.in:
		return p, nil
	case <-e.link.stopCh:
		// Drain anything already delivered.
		select {
		case p := <-e.in:
			return p, nil
		default:
			return nil, ErrClosed
		}
	}
}

// TryRecv returns a delivered packet without blocking.
func (e *Endpoint) TryRecv() ([]byte, bool) {
	select {
	case p := <-e.in:
		return p, true
	default:
		return nil, false
	}
}

// Stats returns a snapshot of this endpoint's transmit-direction counters.
func (e *Endpoint) Stats() Stats {
	e.out.mu.Lock()
	defer e.out.mu.Unlock()
	return e.out.stats
}

// Close shuts the link down in both directions.
func (l *Link) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	close(l.stopCh)
	l.mu.Unlock()
	l.wg.Wait()
}
