package estelle

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// MappingFunc assigns a module instance to a scheduling unit, identified by
// an arbitrary key. All instances with the same key share one unit (one
// goroutine). This is the paper's "mapping of Estelle modules onto tasks and
// threads", the knob behind its §5.2 results.
type MappingFunc func(*Instance) string

// Predefined mappings.

// MapSingleUnit places every module in one unit: the paper's sequential,
// centralized-scheduler implementation.
func MapSingleUnit(*Instance) string { return "unit" }

// MapPerInstance gives every module instance its own unit: the code
// generator's first version, "one thread for each Estelle module, creating
// the maximum degree of parallelism allowed by Estelle semantics" (§4.2).
func MapPerInstance(m *Instance) string { return m.name }

// MapPerSystem maps each system-module tree to one unit: systems run in
// parallel, modules within a system sequentially.
func MapPerSystem(m *Instance) string { return m.systemRoot().name }

// MapByModuleName co-locates all instances of the same module definition:
// the paper's layer-per-processor configuration.
func MapByModuleName(m *Instance) string { return m.def.Name }

// MapPerGroupRoot co-locates each subtree rooted at a GroupRoot-flagged
// module: the paper's connection-per-processor configuration.
func MapPerGroupRoot(m *Instance) string { return m.groupRootAncestor().name }

// MapRoundRobin distributes instances over k units by instance id. It is
// deliberately locality-blind (modules of one connection land in different
// units) and exists as the strawman grouping; prefer MapGroupedConnections.
func MapRoundRobin(k int) MappingFunc {
	if k < 1 {
		k = 1
	}
	return func(m *Instance) string { return fmt.Sprintf("rr%d", m.id%int64(k)) }
}

// MapGroupedConnections implements the paper's §5.2 grouping scheme: "group
// certain Estelle modules into one unit, and run this unit by one thread;
// we take as many of these units as there are processors". Whole GroupRoot
// subtrees (connections) are dealt round-robin over k units, so modules
// that exchange data stay together and only whole connections share a
// processor.
func MapGroupedConnections(k int) MappingFunc {
	if k < 1 {
		k = 1
	}
	var mu sync.Mutex
	next := 0
	assigned := make(map[string]string)
	return func(m *Instance) string {
		root := m.groupRootAncestor().name
		mu.Lock()
		defer mu.Unlock()
		key, ok := assigned[root]
		if !ok {
			key = fmt.Sprintf("grp%d", next%k)
			next++
			assigned[root] = key
		}
		return key
	}
}

// unit is a group of module instances scheduled by one goroutine. Units are
// event-driven: a pass visits only instances marked runnable (pending input,
// Notify, matured delays) in the dirty work queue, never the full instance
// list — the decentralized answer to the paper's §5.2 "scheduler runtime
// percentage of up to 80%" observation.
type unit struct {
	key   string
	sched *Scheduler

	mu        sync.Mutex
	instances []*Instance
	deadCount int
	// retired marks a unit whose goroutine has exited because every adopted
	// instance was released. Guarded by mu; wake attempts on a retired unit
	// are dropped so the pending-wake accounting stays balanced.
	retired bool
	// running is true from the moment the unit's goroutine takes a wake
	// until it has found dirty empty under mu and goes idle. Guarded by mu;
	// while it is set no waker sends a token, because the unit re-checks
	// dirty under mu before it idles.
	running bool
	// dirty is the pending work queue: instances marked runnable since the
	// last drain. Appended under mu by any goroutine; drained by the unit.
	dirty []*Instance
	// scratch holds the drained work list of the current pass (unit-local).
	scratch []*Instance
	// delayed lists instances whose last scan reported a pending delay
	// clause (unit-local; lazily compacted).
	delayed []*Instance

	wakeCh chan struct{}
	// nextDue holds the earliest delay due time (UnixNano) observed on the
	// last idle transition; 0 = none. Read by the quiescence monitor.
	nextDue atomic.Int64
	passID  uint64
}

// wakeupLocked sends a wake token unless the unit is running or has
// retired. Callers hold u.mu, which orders every wake against the unit's
// idle check and tryRetire's final drain: a waker either finds the unit
// running (and its work queued before the unit's last look at dirty) or
// idle, and then lands its token; or it observes retired and drops it.
func (u *unit) wakeupLocked() {
	if u.retired || u.running {
		return
	}
	select {
	case u.wakeCh <- struct{}{}:
		u.sched.pendingWakes.Add(1)
	default:
	}
}

// setRunning marks the unit's goroutine awake: wakers stop sending tokens
// until it next goes idle.
func (u *unit) setRunning() {
	u.mu.Lock()
	u.running = true
	u.mu.Unlock()
}

func (u *unit) wakeup() {
	u.mu.Lock()
	u.wakeupLocked()
	u.mu.Unlock()
}

// markDirty queues m for the next pass (deduplicated by m.dirtyFlag) and
// wakes the unit if it is idle. Safe to call from any goroutine. A retired
// unit must not take the queue entry: setting the flag there would strand m
// (the fresh unit's add CAS would fail and nothing would ever drain the
// retired queue). Instead the wake is redirected to m's current unit, or
// dropped — in which case re-adoption's own first-pass queueing picks the
// work up.
func (u *unit) markDirty(m *Instance) {
	u.mu.Lock()
	if u.retired {
		u.mu.Unlock()
		if nu := m.unitPtr.Load(); nu != nil && nu != u {
			nu.markDirty(m)
		}
		return
	}
	if m.dirtyFlag.CompareAndSwap(false, true) {
		u.dirty = append(u.dirty, m)
	}
	u.wakeupLocked()
	u.mu.Unlock()
}

// requeue re-marks m runnable from within the unit's own pass (after it
// fired, worked, or was skipped by parent precedence) without a redundant
// wakeup — the unit keeps draining until the queue is empty anyway.
func (u *unit) requeue(m *Instance) {
	if m.dirtyFlag.CompareAndSwap(false, true) {
		u.mu.Lock()
		u.dirty = append(u.dirty, m)
		u.mu.Unlock()
	}
}

// noteDelay records m's earliest pending delay due time (zero = none).
// Called only by the unit goroutine during a pass.
func (u *unit) noteDelay(m *Instance, due time.Time) {
	if due.IsZero() {
		m.delayDue = 0
		return
	}
	m.delayDue = due.UnixNano()
	if !m.inDelayed {
		m.inDelayed = true
		u.delayed = append(u.delayed, m)
	}
}

// minDelayDue returns the earliest pending delay over the unit's delayed
// instances (zero if none), compacting the list as it goes.
func (u *unit) minDelayDue() time.Time {
	live := u.delayed[:0]
	var min int64
	for _, m := range u.delayed {
		if m.dead.Load() || m.delayDue == 0 {
			m.inDelayed = false
			continue
		}
		live = append(live, m)
		if min == 0 || m.delayDue < min {
			min = m.delayDue
		}
	}
	u.delayed = live
	if min == 0 {
		return time.Time{}
	}
	return time.Unix(0, min)
}

// wakeDelayed re-queues every instance with a pending delay clause; called
// by the unit goroutine when its delay timer fires.
func (u *unit) wakeDelayed() {
	for _, m := range u.delayed {
		if m.delayDue != 0 && !m.dead.Load() {
			u.requeue(m)
		}
	}
}

// wakeMatured re-queues delayed instances whose due time has passed. The
// unit calls it on every scheduling iteration so a busy unit (one that
// never reaches the idle branch where the delay timer is armed) still
// fires matured delay-clause transitions promptly. The clock is read only
// when some instance has a pending delay.
func (u *unit) wakeMatured(clock Clock) {
	if len(u.delayed) == 0 {
		return
	}
	nowNano := clock.Now().UnixNano()
	for _, m := range u.delayed {
		if m.delayDue != 0 && m.delayDue <= nowNano && !m.dead.Load() {
			u.requeue(m)
		}
	}
}

// wakeupAll marks every live instance of the unit runnable — the full-scan
// fallback used when virtual time jumps (ManualClock advance).
func (u *unit) wakeupAll() {
	u.mu.Lock()
	for _, m := range u.instances {
		if !m.dead.Load() && m.dirtyFlag.CompareAndSwap(false, true) {
			u.dirty = append(u.dirty, m)
		}
	}
	u.wakeupLocked()
	u.mu.Unlock()
}

// add registers a (possibly dynamically created) instance with the unit and
// queues it for its first pass. The CAS keeps the queue duplicate-free
// against senders that saw unitPtr and called markDirty first. It reports
// false when the unit retired between the caller's lookup and the add; the
// caller must then re-resolve a fresh unit.
func (u *unit) add(m *Instance) bool {
	u.mu.Lock()
	if u.retired {
		u.mu.Unlock()
		return false
	}
	u.instances = append(u.instances, m)
	if m.dirtyFlag.CompareAndSwap(false, true) {
		u.dirty = append(u.dirty, m)
	}
	u.wakeupLocked()
	u.mu.Unlock()
	return true
}

// takeDirty drains the pending work queue into the unit's scratch buffer in
// creation order (parents precede children, as tree precedence requires),
// clearing each instance's dirty flag so concurrent arrivals re-queue. The
// queue usually arrives in order already (one connection's modules marked
// in creation order), so it is sorted only when it is not.
func (u *unit) takeDirty() []*Instance {
	u.mu.Lock()
	if u.deadCount > len(u.instances)/2 && len(u.instances) > 16 {
		live := u.instances[:0]
		for _, m := range u.instances {
			if !m.dead.Load() {
				live = append(live, m)
			}
		}
		u.instances = live
		u.deadCount = 0
	}
	u.scratch = append(u.scratch[:0], u.dirty...)
	u.dirty = u.dirty[:0]
	u.mu.Unlock()
	sorted := true
	for i, m := range u.scratch {
		m.dirtyFlag.Store(false)
		if i > 0 && u.scratch[i-1].id > m.id {
			sorted = false
		}
	}
	if !sorted {
		slices.SortFunc(u.scratch, func(a, b *Instance) int {
			return cmp.Compare(a.id, b.id)
		})
	}
	return u.scratch
}

// SchedOption configures a Scheduler.
type SchedOption func(*Scheduler)

// WithProcessors limits concurrent unit execution to p virtual processors,
// modelling the paper's KSR1 processor count. p <= 0 means unlimited.
func WithProcessors(p int) SchedOption { return func(s *Scheduler) { s.procs = p } }

// WithBatch sets how many scan passes a unit runs per processor-token
// acquisition (default 8).
func WithBatch(n int) SchedOption {
	return func(s *Scheduler) {
		if n > 0 {
			s.batch = n
		}
	}
}

// Scheduler drives a Runtime's module instances with one goroutine per unit,
// the unified engine behind the paper's sequential (one unit) and parallel
// (many units) implementations.
type Scheduler struct {
	rt      *Runtime
	mapping MappingFunc
	procs   int
	batch   int

	mu       sync.Mutex
	units    map[string]*unit
	unitList []*unit
	started  bool

	tokens    chan struct{}
	stopCh    chan struct{}
	wg        sync.WaitGroup
	idleUnits atomic.Int64
	// pendingWakes counts wake tokens buffered in unit wake channels; the
	// quiescence detector must see zero to conclude no work is in flight.
	pendingWakes atomic.Int64
}

// NewScheduler creates a scheduler over rt using the given mapping.
func NewScheduler(rt *Runtime, mapping MappingFunc, opts ...SchedOption) *Scheduler {
	s := &Scheduler{
		rt:      rt,
		mapping: mapping,
		batch:   8,
		units:   make(map[string]*unit),
		stopCh:  make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Units returns the number of scheduling units created so far.
func (s *Scheduler) Units() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.unitList)
}

// Start attaches the scheduler to the runtime, assigns all existing
// instances to units, and launches the unit goroutines.
func (s *Scheduler) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("estelle: scheduler already started")
	}
	s.started = true
	if s.procs > 0 {
		s.tokens = make(chan struct{}, s.procs)
		for i := 0; i < s.procs; i++ {
			s.tokens <- struct{}{}
		}
	}
	s.mu.Unlock()

	s.rt.mu.Lock()
	if s.rt.sched != nil {
		s.rt.mu.Unlock()
		return fmt.Errorf("estelle: runtime already has an active scheduler")
	}
	s.rt.sched = s
	existing := make([]*Instance, 0, len(s.rt.instances))
	for _, m := range s.rt.instances {
		if !m.dead.Load() {
			existing = append(existing, m)
		}
	}
	s.rt.mu.Unlock()
	for _, m := range existing {
		s.adopt(m)
	}
	return nil
}

// adopt assigns a (possibly dynamically created) instance to a unit,
// honouring the co-location constraints Estelle's tree semantics impose:
// children of activity-like parents and children of transition-bearing
// parents must share the parent's unit so precedence/exclusion can be
// enforced locally.
func (s *Scheduler) adopt(m *Instance) {
	key := s.mapping(m)
	if p := m.parent; p != nil {
		if pu := p.unitPtr.Load(); pu != nil &&
			(p.def.Attr.activityLike() || p.cdef.hasTrans) && pu.key != key {
			key = pu.key
			s.rt.stats.MappingOverrides.Add(1)
		}
	}
	for {
		s.mu.Lock()
		u, ok := s.units[key]
		created := false
		if !ok {
			// A new unit starts running: its goroutine's first pass drains
			// what add queues, so no wake token is needed.
			u = &unit{key: key, sched: s, wakeCh: make(chan struct{}, 1), running: true}
			s.units[key] = u
			s.unitList = append(s.unitList, u)
			created = true
		}
		s.mu.Unlock()
		m.firedPass = 0
		m.childRanPass = 0
		m.delayDue = 0
		m.inDelayed = false
		// Clear any stale dirty flag from a previously stopped scheduler
		// before the unit becomes reachable through unitPtr.
		m.dirtyFlag.Store(false)
		m.unitPtr.Store(u)
		if !u.add(m) {
			// The unit retired between lookup and add; the key is free
			// again, so the next round creates a fresh unit.
			continue
		}
		if created {
			s.wg.Add(1)
			go s.runUnit(u)
		}
		return
	}
}

// adoptTree adopts root and its live descendants in creation order (parents
// before children, as tree precedence requires). Callers ensure every Init
// in the subtree has completed, so no unit scans a half-built instance.
func (s *Scheduler) adoptTree(root *Instance) {
	s.adopt(root)
	for _, c := range root.Children() {
		s.adoptTree(c)
	}
}

// tryRetire ends a unit whose every adopted instance has been released and
// whose work queue is empty: the key is freed, the goroutine exits, and any
// buffered wake token is reclaimed. Only the unit's own goroutine calls it.
// Without retirement, a server creating one entity subtree per connection
// would keep one goroutine and one unit alive per session ever served.
func (s *Scheduler) tryRetire(u *unit) bool {
	s.mu.Lock()
	u.mu.Lock()
	if len(u.instances) == 0 || len(u.dirty) > 0 {
		u.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	for _, m := range u.instances {
		if !m.dead.Load() {
			u.mu.Unlock()
			s.mu.Unlock()
			return false
		}
	}
	u.retired = true
	// Reclaim a wake token buffered after the caller's last drain. Later
	// wakers hold u.mu and observe retired, so none can follow.
	select {
	case <-u.wakeCh:
		s.pendingWakes.Add(-1)
	default:
	}
	delete(s.units, u.key)
	for i, x := range s.unitList {
		if x == u {
			s.unitList = append(s.unitList[:i], s.unitList[i+1:]...)
			break
		}
	}
	u.mu.Unlock()
	s.mu.Unlock()
	return true
}

// discard notes that an instance died so its unit can compact.
func (s *Scheduler) discard(m *Instance) {
	if u := m.unitPtr.Load(); u != nil {
		u.mu.Lock()
		u.deadCount++
		u.mu.Unlock()
		u.wakeup()
	}
}

func (s *Scheduler) runUnit(u *unit) {
	defer s.wg.Done()
	rt := s.rt
	_, isManual := rt.clock.(*ManualClock)
	for {
		// Acquire a virtual processor.
		if s.tokens != nil {
			var w0 time.Time
			if rt.timing {
				w0 = time.Now()
			}
			select {
			case <-s.tokens:
			case <-s.stopCh:
				return
			}
			if rt.timing {
				rt.stats.SyncWaitNanos.Add(time.Since(w0).Nanoseconds())
			}
		}
		for i := 0; i < s.batch; i++ {
			work := u.takeDirty()
			if len(work) == 0 {
				break
			}
			u.passID++
			scanInstances(rt, work, u, u.passID)
		}
		if s.tokens != nil {
			s.tokens <- struct{}{}
		}
		// Matured delay clauses must not starve while the unit stays busy:
		// the idle-branch timer below never arms in that case.
		u.wakeMatured(rt.clock)
		// Go idle only on an empty queue, decided under u.mu: work queued
		// before this check is seen here, and a waker after it finds the
		// unit not running and sends a token.
		u.mu.Lock()
		if len(u.dirty) > 0 {
			u.mu.Unlock()
			continue
		}
		u.running = false
		u.mu.Unlock()
		// A unit whose instances have all been released ends here instead
		// of idling forever.
		if s.tryRetire(u) {
			return
		}
		// Nothing to do: go idle until woken, a delay matures, or stop.
		nextDue := u.minDelayDue()
		if nextDue.IsZero() {
			u.nextDue.Store(0)
		} else {
			u.nextDue.Store(nextDue.UnixNano())
		}
		var timer *time.Timer
		var timerCh <-chan time.Time
		if !nextDue.IsZero() && !isManual {
			d := nextDue.Sub(rt.clock.Now())
			if d < 0 {
				d = 0
			}
			timer = time.NewTimer(d)
			timerCh = timer.C
		}
		s.idleUnits.Add(1)
		select {
		case <-u.wakeCh:
			u.setRunning()
			// Leave idle before releasing the pending-wake count so the
			// quiescence monitor never observes "all idle, no pending".
			s.idleUnits.Add(-1)
			s.pendingWakes.Add(-1)
		case <-timerCh:
			u.setRunning()
			s.idleUnits.Add(-1)
			u.wakeDelayed()
		case <-s.stopCh:
			s.idleUnits.Add(-1)
			if timer != nil {
				timer.Stop()
			}
			return
		}
		u.nextDue.Store(0)
		if timer != nil {
			timer.Stop()
		}
	}
}

// Stop halts all unit goroutines and detaches from the runtime.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
	s.rt.mu.Lock()
	if s.rt.sched == s {
		s.rt.sched = nil
	}
	insts := append([]*Instance(nil), s.rt.instances...)
	s.rt.mu.Unlock()
	for _, m := range insts {
		if u := m.unitPtr.Load(); u != nil && u.sched == s {
			m.unitPtr.Store(nil)
		}
	}
}

// earliestDue returns the minimum nextDue over idle units (zero if none).
func (s *Scheduler) earliestDue() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var min int64
	for _, u := range s.unitList {
		if v := u.nextDue.Load(); v != 0 && (min == 0 || v < min) {
			min = v
		}
	}
	if min == 0 {
		return time.Time{}
	}
	return time.Unix(0, min)
}

// wakeAll re-queues every instance of every unit — used when virtual time
// jumps, which can enable transitions no event announced.
func (s *Scheduler) wakeAll() {
	s.mu.Lock()
	units := append([]*unit(nil), s.unitList...)
	s.mu.Unlock()
	for _, u := range units {
		u.wakeupAll()
	}
}

// RunToQuiescence starts the scheduler (if needed), waits until no module
// can fire and no interaction is in flight, then stops it. With a
// ManualClock it advances virtual time across delay clauses. It fails if
// quiescence is not reached within timeout.
func (s *Scheduler) RunToQuiescence(timeout time.Duration) error {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if !started {
		if err := s.Start(); err != nil {
			return err
		}
	}
	defer s.Stop()
	return s.WaitQuiescent(timeout)
}

// WaitQuiescent blocks until the running scheduler reaches quiescence.
func (s *Scheduler) WaitQuiescent(timeout time.Duration) error {
	mc, isManual := s.rt.clock.(*ManualClock)
	deadline := time.Now().Add(timeout)
	lastEvents := int64(-1)
	stable := 0
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := int64(len(s.unitList))
		s.mu.Unlock()
		if s.idleUnits.Load() == n && n > 0 && s.pendingWakes.Load() == 0 {
			ev := s.rt.events.Load() + s.rt.stats.TransitionsFired.Load()
			if ev == lastEvents {
				stable++
			} else {
				stable = 0
				lastEvents = ev
			}
			if stable >= 3 {
				due := s.earliestDue()
				if due.IsZero() {
					return nil
				}
				if isManual {
					mc.AdvanceTo(due)
					stable = 0
					lastEvents = -1
					s.wakeAll()
					continue
				}
				// Real clock: unit timers will fire; keep waiting.
			}
		} else {
			stable = 0
		}
		time.Sleep(50 * time.Microsecond)
	}
	return fmt.Errorf("estelle: not quiescent after %v", timeout)
}

// Stepper drives a runtime deterministically on the calling goroutine —
// the reference implementation of Estelle's global-situation semantics,
// used by tests and as the baseline "centralized scheduler".
type Stepper struct {
	rt     *Runtime
	passID uint64
	// scratch is the reused live-instance snapshot buffer.
	scratch []*Instance
}

// NewStepper returns a stepper for rt. The runtime must not have an active
// Scheduler while a Stepper drives it.
func NewStepper(rt *Runtime) *Stepper { return &Stepper{rt: rt} }

// Step runs one global scheduling pass and reports how many transitions
// fired and the earliest pending delay due time.
func (st *Stepper) Step() (int, time.Time) {
	st.passID++
	st.scratch = st.rt.liveInstances(st.scratch)
	return scanInstances(st.rt, st.scratch, nil, st.passID)
}

// RunUntilIdle steps until no transition fires. With a ManualClock it
// advances virtual time over delay clauses. It returns the total number of
// transitions fired, and an error if maxPasses is exceeded.
func (st *Stepper) RunUntilIdle(maxPasses int) (int, error) {
	mc, isManual := st.rt.clock.(*ManualClock)
	total := 0
	for pass := 0; pass < maxPasses; pass++ {
		fired, due := st.Step()
		total += fired
		if fired > 0 {
			continue
		}
		if due.IsZero() {
			return total, nil
		}
		if isManual {
			mc.AdvanceTo(due)
			continue
		}
		now := st.rt.clock.Now()
		if d := due.Sub(now); d > 0 {
			time.Sleep(d)
		}
	}
	return total, fmt.Errorf("estelle: still active after %d passes", maxPasses)
}
