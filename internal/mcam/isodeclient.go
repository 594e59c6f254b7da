package mcam

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xmovie/internal/isode"
	"xmovie/internal/presentation"
	"xmovie/internal/transport"
)

// IsodeClient is the hand-coded MCAM client running directly on the ISODE
// presentation interface — the paper's second protocol stack (§3), used to
// compare generated against hand-written code and to cross-test
// conformance. Calls are synchronous; stream events arriving between
// responses are delivered to the OnEvent callback.
type IsodeClient struct {
	// OnEvent, when non-nil, receives server-initiated stream events. Set
	// it before issuing calls. It runs on the calling goroutine during
	// Call/AwaitEvent.
	OnEvent func(Event)

	mu     sync.Mutex
	prov   *isode.Provider
	invoke int64
	// encBuf is the per-association request encode buffer (guarded by mu);
	// Provider.Data copies it into its own wire buffer before sending.
	encBuf []byte
	// dc/timeout, when set by DialIsodeTimeout, bound every receive wait:
	// a dead server surfaces as ErrTimeout instead of a hung Call.
	dc      transport.DeadlineConn
	timeout time.Duration
}

// DialIsode establishes an MCAM association over conn. Calls block without
// bound; use DialIsodeTimeout for per-operation deadlines.
func DialIsode(conn transport.Conn, calledSel string) (*IsodeClient, error) {
	prov, _, err := isode.Connect(conn, calledSel, proposedContexts(), nil)
	if err != nil {
		return nil, fmt.Errorf("mcam: %w", err)
	}
	return &IsodeClient{prov: prov}, nil
}

// DialIsodeTimeout establishes an MCAM association whose every receive wait
// — association setup, Call responses, AwaitEvent — is bounded by timeout:
// a dead or wedged server returns ErrTimeout instead of hanging forever,
// and a severed association returns ErrClosed. timeout <= 0 means
// unbounded (equivalent to DialIsode).
func DialIsodeTimeout(conn transport.Conn, calledSel string, timeout time.Duration) (*IsodeClient, error) {
	dc := transport.NewDeadlineConn(conn)
	if timeout > 0 {
		dc.SetRecvDeadline(time.Now().Add(timeout))
	}
	prov, _, err := isode.Connect(dc, calledSel, proposedContexts(), nil)
	if err != nil {
		if errors.Is(err, transport.ErrDeadline) {
			return nil, fmt.Errorf("%w: connect", ErrTimeout)
		}
		return nil, fmt.Errorf("mcam: %w", err)
	}
	dc.SetRecvDeadline(time.Time{})
	return &IsodeClient{prov: prov, dc: dc, timeout: timeout}, nil
}

// bound sets the receive deadline of one operation: timeout from now, or
// none for timeout <= 0. Every operation sets its own, so none needs
// clearing afterwards. A no-op without DialIsodeTimeout.
func (c *IsodeClient) bound(timeout time.Duration) {
	if c.dc == nil {
		return
	}
	var t time.Time
	if timeout > 0 {
		t = time.Now().Add(timeout)
	}
	c.dc.SetRecvDeadline(t)
}

// Call sends a request and blocks for its response, dispatching any stream
// events that arrive in between. Under DialIsodeTimeout the wait is
// bounded: a silent server returns ErrTimeout and a severed association
// returns ErrClosed.
func (c *IsodeClient) Call(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bound(c.timeout)
	c.invoke++
	req.InvokeID = c.invoke
	var err error
	c.encBuf, err = (&PDU{Request: req}).Append(c.encBuf[:0])
	if err != nil {
		return nil, err
	}
	if err := c.prov.Data(ContextID, c.encBuf); err != nil {
		return nil, fmt.Errorf("mcam: send: %w", err)
	}
	for {
		pdu, err := c.recvPDU()
		if err != nil {
			return nil, err
		}
		switch {
		case pdu.Event != nil:
			if c.OnEvent != nil {
				c.OnEvent(*pdu.Event)
			}
		case pdu.Response != nil:
			if pdu.Response.InvokeID < req.InvokeID {
				// A stale answer to a call that timed out earlier; the
				// deadline left it queued. Skip it and keep waiting.
				continue
			}
			if pdu.Response.InvokeID != req.InvokeID {
				return nil, fmt.Errorf("mcam: response for invoke %d, want %d",
					pdu.Response.InvokeID, req.InvokeID)
			}
			return pdu.Response, nil
		default:
			return nil, fmt.Errorf("mcam: unexpected request from server")
		}
	}
}

// AwaitEvent blocks until the next stream event arrives (no call pending).
// Under DialIsodeTimeout the wait is bounded by the dial timeout; use
// AwaitEventTimeout for an explicit bound.
func (c *IsodeClient) AwaitEvent() (Event, error) {
	return c.AwaitEventTimeout(c.timeout)
}

// AwaitEventTimeout blocks until the next stream event arrives or timeout
// passes (ErrTimeout). A severed or released association returns ErrClosed
// immediately. Bounds require DialIsodeTimeout; otherwise timeout is
// ignored.
func (c *IsodeClient) AwaitEventTimeout(timeout time.Duration) (Event, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bound(timeout)
	for {
		pdu, err := c.recvPDU()
		if err != nil {
			return Event{}, err
		}
		if pdu.Event != nil {
			if c.OnEvent != nil {
				c.OnEvent(*pdu.Event)
			}
			return *pdu.Event, nil
		}
	}
}

// recvPDU receives and decodes the next PDU, classifying receive failures:
// a deadline expiry is ErrTimeout (the association may still be alive), and
// every other receive failure is terminal ErrClosed — the provider cannot
// deliver further PDUs after a transport error, release or abort.
func (c *IsodeClient) recvPDU() (*PDU, error) {
	ctxID, data, err := c.prov.RecvData()
	if err != nil {
		if errors.Is(err, transport.ErrDeadline) {
			return nil, fmt.Errorf("%w: awaiting PDU", ErrTimeout)
		}
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	if ctxID != ContextID {
		return nil, fmt.Errorf("mcam: data on unexpected context %d", ctxID)
	}
	return Decode(data)
}

// Close releases the association in an orderly way.
func (c *IsodeClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bound(c.timeout)
	return c.prov.Release(nil)
}

// Abort tears the association down immediately.
func (c *IsodeClient) Abort() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prov.Abort()
}

// ServeIsode runs the hand-coded server side of one MCAM association over
// conn until the client releases or aborts. It is the direct, non-Estelle
// implementation used as the baseline in the generated-vs-handwritten
// comparison (experiment E6).
func ServeIsode(conn transport.Conn, env *ServerEnv) error {
	return ServeIsodeQoS(conn, env, nil)
}

// ServeIsodeQoS is ServeIsode with a per-session QoS binding: qos, when
// non-nil, caps the association's streams with its tenant's shared
// throttle and books their outcomes into the tenant's counters. The
// connection manager resolves the binding at admission.
func ServeIsodeQoS(conn transport.Conn, env *ServerEnv, qos *SessionQoS) error {
	prov, _, err := isode.Accept(conn, acceptAll)
	if err != nil {
		return err
	}
	// Stream goroutines push events straight onto the association, so the
	// reused event encode buffer needs its own lock; Provider.Data copies
	// it into the wire buffer (under its send mutex) before sending.
	var evMu sync.Mutex
	var evBuf []byte
	h := newHandler(env, qos, func(e Event) {
		evMu.Lock()
		defer evMu.Unlock()
		var err error
		evBuf, err = (&PDU{Event: &e}).Append(evBuf[:0])
		if err == nil {
			_ = prov.Data(ContextID, evBuf)
		}
	})
	defer h.close()
	return serveRequests(prov, h.execute)
}

// acceptAll accepts every association request.
func acceptAll(*presentation.CP) isode.AcceptDecision {
	return isode.AcceptDecision{Accept: true}
}

// serveRequests is the hand-coded serving loop: it sends answer(req) for
// every MCAM request on prov until the client releases (accepted here) or
// the association fails. A PDU that does not decode to a request is
// answered with StatusProtocolError.
func serveRequests(prov *isode.Provider, answer func(*Request) *Response) error {
	// encBuf is the per-association response encode buffer; Provider.Data
	// copies it into its own wire buffer before sending.
	var encBuf []byte
	for {
		ctxID, data, err := prov.RecvData()
		switch {
		case errors.Is(err, isode.ErrReleased):
			return prov.AcceptRelease()
		case err != nil:
			return err
		}
		if ctxID != ContextID {
			continue
		}
		pdu, err := Decode(data)
		if err != nil || pdu.Request == nil {
			resp := &Response{Status: StatusProtocolError, Diagnostic: "expected request"}
			if encBuf, err = (&PDU{Response: resp}).Append(encBuf[:0]); err == nil {
				_ = prov.Data(ContextID, encBuf)
			}
			continue
		}
		encBuf, err = (&PDU{Response: answer(pdu.Request)}).Append(encBuf[:0])
		if err != nil {
			continue
		}
		if err := prov.Data(ContextID, encBuf); err != nil {
			return err
		}
	}
}
