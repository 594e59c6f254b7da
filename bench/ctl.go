package main

import (
	"fmt"
	"strings"
	"sync"

	"xmovie/internal/mcam"
)

// traceEvery is the sampling stride of the traced closed loop: every 63rd
// call of a traced round is replayed. Not every 64th: a stride that the
// eight-step cycle divides would replay the same step every time.
const traceEvery = 63

// request returns the prebuilt request for step op of a cycle.
func (a *assoc) request(op ctlOp, cs cycleSpec) *mcam.Request {
	switch op {
	case opSelect:
		return a.selectReq[cs.movie]
	case opQuerySelected:
		return a.querySel
	case opSeek:
		a.seekReq.Position = int64(cs.pos)
		return a.seekReq
	case opDeselect:
		return a.deselectReq
	case opCreate:
		return a.createReq[cs.priv]
	case opModify:
		return a.modifyReq[cs.priv]
	case opQueryPrivate:
		return a.queryPriv[cs.priv]
	case opDelete:
		return a.deleteReq[cs.priv]
	default:
		return a.listReq
	}
}

func sameAttrs(got, want []mcam.Attr) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// check is the output check of the control loop, done in place on the
// reply: contents against the seeded catalogue, and read-your-writes on
// the private movie.
func (a *assoc) check(op ctlOp, cs cycleSpec, resp *mcam.Response) bool {
	if !resp.OK() {
		return false
	}
	m := &a.w.cat[cs.movie]
	switch op {
	case opSelect:
		return resp.Length == int64(m.frames) && resp.FrameRate == int64(m.rate)
	case opQuerySelected:
		return resp.Length == int64(m.frames) && resp.FrameRate == int64(m.rate) && sameAttrs(resp.Attrs, m.attrs)
	case opSeek:
		return resp.Position == int64(cs.pos)
	case opQueryPrivate:
		return resp.Length == 0 && resp.FrameRate == 25 && sameAttrs(resp.Attrs, privateAfterModify)
	case opList:
		// The seeded names in order, then whichever private movies the
		// other associations hold at this instant.
		want := a.w.listWant
		if len(resp.Movies) < len(want) {
			return false
		}
		for i, name := range want {
			if resp.Movies[i] != name {
				return false
			}
		}
		for _, name := range resp.Movies[len(want):] {
			if !strings.HasPrefix(name, privatePrefix) {
				return false
			}
		}
	}
	return true
}

// closedLoop issues the association's op sequence back to back until the
// round clock runs out (or, with maxOps > 0 and no clock, for exactly
// maxOps ops — the fixed warm-up). Nothing in the loop allocates on the
// harness side: requests and expected answers are prebuilt, latencies go
// into the round's histogram.
func (a *assoc) closedLoop(rc *roundClock, sink *sink, maxOps int) error {
	t := nowNs()
	if rc != nil && t < rc.t0 {
		sleepUntil(rc.t0)
		t = nowNs()
	}
	for n := 0; maxOps == 0 || n < maxOps; n++ {
		op, cs := opAt(a.script, a.cursor)
		req := a.request(op, cs)
		resp, err := a.cli.Call(req)
		t2 := nowNs()
		if err != nil {
			a.attempted++
			a.failed++
			return fmt.Errorf("association %d: %s: %w", a.id, ctlOpNames[op], err)
		}
		ok := a.check(op, cs, resp)
		if !ok {
			a.w.fail("association %d op %d (%s): wrong answer: %s %s", a.id, a.cursor, ctlOpNames[op], resp.Status, resp.Diagnostic)
		}
		a.cursor++
		if rc != nil {
			r := rc.idx(t2)
			if r >= rc.n {
				// Past the last round: finish the cycle so the next phase
				// starts from a clean selection and store, uncounted.
				if a.cursor%(listEvery*cycleLen+1)%cycleLen == 0 {
					return nil
				}
				t = t2
				continue
			}
			sink.lat[r].record(t2 - t)
			sink.count[r]++
			if sink.tr != nil && r%2 == 1 && a.cursor%traceEvery == 0 {
				sink.replay(a.w, req, resp, t, t2)
				t2 = nowNs() // the replay is the harness's time, not the next op's
			}
		}
		a.attempted++
		if !ok {
			a.failed++
		}
		t = t2
	}
	return nil
}

// runClosed runs every association's closed loop concurrently: C clients
// on C Ps, nothing else.
func (w *world) runClosed(rc *roundClock, sinks []*sink, maxOps int) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(w.assocs))
	for i, a := range w.assocs {
		wg.Add(1)
		var s *sink // the warm-up has none
		if sinks != nil {
			s = sinks[i]
		}
		go func(a *assoc) {
			defer wg.Done()
			if err := a.closedLoop(rc, s, maxOps); err != nil {
				errs <- err
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	return <-errs
}
