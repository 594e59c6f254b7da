package estelle

import "time"

// passClock reads the runtime clock at most once per scheduling pass, and
// only when a delay clause asks for it: a pass over modules without pending
// delay clauses never reads the clock.
type passClock struct {
	clock Clock
	now   time.Time
	read  bool
}

func (c *passClock) Now() time.Time {
	if !c.read {
		c.now, c.read = c.clock.Now(), true
	}
	return c.now
}

// selectTransition finds the highest-priority enabled transition of m at the
// pass's time. It returns the transition index (-1 if none), the head
// interaction to consume (nil for spontaneous transitions), and the earliest
// future instant at which a currently delay-blocked transition becomes
// eligible (zero if none).
//
// Dispatch strategy (paper §5.2): DispatchLinear walks the whole declaration
// list, checking each transition's source states — the "hard-coded chain of
// code blocks". DispatchTable walks only the precomputed per-state list —
// the "table-controlled" variant.
func (m *Instance) selectTransition(clk *passClock) (int, *Interaction, time.Time) {
	var cands []int
	linear := m.def.Dispatch == DispatchLinear
	if linear {
		cands = m.cdef.all
	} else {
		cands = m.cdef.byState[m.state]
	}
	best := -1
	bestPrio := 0
	var bestMsg *Interaction
	var nextDue time.Time
	m.ectx = Ctx{inst: m}
	ctx := &m.ectx
	// scanSeq stamps this scan; delay-clause transitions seen enabled are
	// stamped in delayStamp so stale enabledSince entries can be expired in
	// O(delayed) afterwards, with no per-scan scratch allocation.
	m.scanSeq++

	// Snapshot queue heads once per scan so every candidate transition is
	// judged against the same global situation: without this, a message
	// arriving between two peeks could fire a later-declared transition
	// even though an earlier one matches the same head.
	for i := range m.headValid {
		m.headValid[i] = false
	}
	head := func(ipIdx int) *Interaction {
		if !m.headValid[ipIdx] {
			m.headCache[ipIdx] = m.ipList[ipIdx].peekHead()
			m.headValid[ipIdx] = true
		}
		return m.headCache[ipIdx]
	}

	for _, ti := range cands {
		t := &m.def.Trans[ti]
		if linear {
			if set := m.cdef.fromIdx[ti]; set != nil && !set[m.state] {
				continue
			}
		}
		if best >= 0 && t.Priority >= bestPrio {
			// Cannot beat the current best (ties break by declaration
			// order, and cands is in declaration order).
			continue
		}
		var msg *Interaction
		if wi := m.cdef.whenIdx[ti]; wi >= 0 {
			msg = head(wi)
			if msg == nil || msg.Name != t.When.Msg {
				continue
			}
		}
		ctx.Msg = msg
		if t.Provided != nil && !t.Provided(ctx) {
			continue
		}
		if t.Delay != nil {
			if d := t.Delay(ctx); d > 0 {
				m.delayStamp[ti] = m.scanSeq
				now := clk.Now()
				since, ok := m.enabledSince[ti]
				if !ok {
					since = now
					m.enabledSince[ti] = now
				}
				due := since.Add(d)
				if now.Before(due) {
					if nextDue.IsZero() || due.Before(nextDue) {
						nextDue = due
					}
					continue
				}
			}
		}
		best, bestPrio, bestMsg = ti, t.Priority, msg
	}
	// Expire delay timers of transitions that are no longer enabled
	// (Estelle: the delay clock restarts when the transition is disabled).
	// A transition is still enabled iff this scan stamped it.
	if len(m.enabledSince) > 0 {
		for ti := range m.enabledSince {
			if m.delayStamp[ti] != m.scanSeq {
				delete(m.enabledSince, ti)
			}
		}
	}
	ctx.Msg = nil
	return best, bestMsg, nextDue
}

// fire executes transition ti, consuming msg if the transition has a
// when-clause. The consumed interaction is returned to the pool after the
// action runs, so actions must not retain ctx.Msg past the call.
func (m *Instance) fire(ti int, msg *Interaction) {
	t := &m.def.Trans[ti]
	fromState := m.State()
	if wi := m.cdef.whenIdx[ti]; wi >= 0 {
		// Only the owning unit pops, so the head is still msg.
		m.ipList[wi].popHead()
	}
	m.ectx = Ctx{inst: m, Msg: msg}
	ctx := &m.ectx
	if t.Action != nil {
		t.Action(ctx)
	}
	if to := m.cdef.toIdx[ti]; to >= 0 && !ctx.stateOverride {
		m.state = to
	}
	ctx.Msg = nil
	// A state change (or consumed input) may disable delayed transitions;
	// restart all delay clocks, matching Estelle's continuously-enabled
	// requirement.
	if len(m.enabledSince) > 0 {
		clear(m.enabledSince)
	}
	rt := m.rt
	rt.stats.TransitionsFired.Add(1)
	if rt.trace != nil {
		msgName := ""
		if msg != nil {
			msgName = msg.Name
		}
		rt.trace(TraceEvent{
			Module:     m.def.Name,
			Path:       m.Path(),
			Transition: t.Name,
			From:       fromState,
			To:         m.State(),
			Msg:        msgName,
		})
	}
	if msg != nil {
		msg.Release()
	}
}

// scanInstances performs one scheduling pass over insts (creation order:
// parents precede children), honouring Estelle tree semantics:
//
//   - parent precedence: a child is skipped when its parent fired in this
//     pass ("a child can only execute if the parent has nothing to do");
//   - activity exclusion: at most one child of an activity/systemactivity
//     parent fires per pass.
//
// When u is non-nil, insts is the unit's drained work queue: precedence
// applies only between instances of the same unit (the mapper co-locates
// every pair the rules can relate), instances that fired, worked, or were
// skipped by precedence are re-queued for the next pass, and pending delay
// due times are recorded on the unit. Returns the number of fired
// transitions and the earliest delay due time.
func scanInstances(rt *Runtime, insts []*Instance, u *unit, passID uint64) (int, time.Time) {
	clk := passClock{clock: rt.clock}
	fired := 0
	var nextDue time.Time
	timing := rt.timing
	rt.stats.ScanPasses.Add(1)
	for _, m := range insts {
		if m.dead.Load() {
			continue
		}
		if p := m.parent; p != nil && (u == nil || p.unitPtr.Load() == u) {
			if p.firedPass == passID {
				if u != nil {
					u.requeue(m)
				}
				continue
			}
			if p.def.Attr.activityLike() && p.childRanPass == passID {
				if u != nil {
					u.requeue(m)
				}
				continue
			}
		}
		var t0 time.Time
		if timing {
			t0 = time.Now()
		}
		ti, msg, due := m.selectTransition(&clk)
		if timing {
			rt.stats.ScanNanos.Add(time.Since(t0).Nanoseconds())
		}
		if ti < 0 {
			if u != nil {
				u.noteDelay(m, due)
			}
			if !due.IsZero() && (nextDue.IsZero() || due.Before(nextDue)) {
				nextDue = due
			}
			ext := m.external
			if ext == nil {
				ext = m.def.External
			}
			if ext != nil {
				m.ectx = Ctx{inst: m}
				var e0 time.Time
				if timing {
					e0 = time.Now()
				}
				worked := ext.Step(&m.ectx)
				if timing {
					rt.stats.ExecNanos.Add(time.Since(e0).Nanoseconds())
				}
				if worked {
					m.firedPass = passID
					if p := m.parent; p != nil && p.def.Attr.activityLike() {
						p.childRanPass = passID
					}
					fired++
					if u != nil {
						u.requeue(m)
					}
				}
			}
			continue
		}
		m.firedPass = passID
		if p := m.parent; p != nil && p.def.Attr.activityLike() {
			p.childRanPass = passID
		}
		var e0 time.Time
		if timing {
			e0 = time.Now()
		}
		m.fire(ti, msg)
		if timing {
			rt.stats.ExecNanos.Add(time.Since(e0).Nanoseconds())
		}
		fired++
		if u != nil {
			m.delayDue = 0 // firing restarts all delay clocks
			u.requeue(m)
		}
	}
	return fired, nextDue
}
