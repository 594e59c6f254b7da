package mcam

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xmovie/internal/estelle"
)

// Errors returned by the AppClient.
var (
	ErrTimeout = errors.New("mcam: timed out")
	ErrClosed  = errors.New("mcam: association closed")
)

// AppClient is the application interface of §4.1: a set of synchronous
// procedures over the client MCA's user interaction point. It installs a
// sink on the MCA's "U" IP and must be the only consumer of that IP. The
// runtime must be driven by a started Scheduler.
type AppClient struct {
	ip *estelle.IP

	mu       sync.Mutex
	invoke   int64
	conCh    chan conResult
	respCh   chan *Response
	relCh    chan struct{}
	events   chan Event
	aborted  chan struct{}
	abortOne sync.Once
	// timer bounds Call's wait for its response (guarded by mu): one per
	// client, Reset per call and stopped when the call returns.
	timer *time.Timer
}

type conResult struct {
	ok   bool
	diag string
}

// NewAppClient wraps the user-side IP of a client MCA instance (either the
// MCA module itself or an entity IP attached to it).
func NewAppClient(userIP *estelle.IP) *AppClient {
	c := &AppClient{
		ip:      userIP,
		conCh:   make(chan conResult, 1),
		respCh:  make(chan *Response, 1),
		relCh:   make(chan struct{}, 1),
		events:  make(chan Event, 128),
		aborted: make(chan struct{}),
	}
	userIP.SetSink(c.dispatch)
	return c
}

// dispatch runs on the scheduler goroutine and must not block.
func (c *AppClient) dispatch(in *estelle.Interaction) {
	switch in.Name {
	case "AConnectCnf":
		select {
		case c.conCh <- conResult{ok: in.Bool(0), diag: in.Str(1)}:
		default:
		}
	case "AResponse":
		if resp, ok := in.Arg(0).(*Response); ok {
			select {
			case c.respCh <- resp:
			default:
			}
		}
	case "AEvent":
		if ev, ok := in.Arg(0).(*Event); ok {
			select {
			case c.events <- *ev:
			default: // drop when the application lags; events are advisory
			}
		}
	case "AReleaseCnf":
		select {
		case c.relCh <- struct{}{}:
		default:
		}
	case "AAbortInd":
		c.abortOne.Do(func() { close(c.aborted) })
	}
}

// Events exposes server-initiated stream notifications.
func (c *AppClient) Events() <-chan Event { return c.events }

// Connect establishes the MCAM association to calledSel.
func (c *AppClient) Connect(calledSel string, timeout time.Duration) error {
	c.ip.Inject("AConnectReq", calledSel)
	select {
	case r := <-c.conCh:
		if !r.ok {
			return fmt.Errorf("mcam: connect refused: %s", r.diag)
		}
		return nil
	case <-c.aborted:
		return ErrClosed
	case <-time.After(timeout):
		return fmt.Errorf("%w: connect", ErrTimeout)
	}
}

// Call performs one synchronous MCAM operation.
func (c *AppClient) Call(req *Request, timeout time.Duration) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invoke++
	req.InvokeID = c.invoke
	if c.timer == nil {
		c.timer = time.NewTimer(timeout)
	} else {
		c.timer.Reset(timeout)
	}
	defer c.timer.Stop()
	c.ip.Inject("ARequest", req)
	select {
	case resp := <-c.respCh:
		if resp.InvokeID != req.InvokeID {
			return nil, fmt.Errorf("mcam: response for invoke %d, want %d", resp.InvokeID, req.InvokeID)
		}
		return resp, nil
	case <-c.aborted:
		return nil, ErrClosed
	case <-c.timer.C:
		return nil, fmt.Errorf("%w: %s", ErrTimeout, req.Op)
	}
}

// Release performs an orderly release of the association.
func (c *AppClient) Release(timeout time.Duration) error {
	c.ip.Inject("AReleaseReq")
	select {
	case <-c.relCh:
		return nil
	case <-c.aborted:
		return ErrClosed
	case <-time.After(timeout):
		return fmt.Errorf("%w: release", ErrTimeout)
	}
}

// MarkClosed transitions the client into its terminal state locally, as if
// the provider had aborted: every pending and future Call, Connect and
// AwaitEvent returns ErrClosed immediately. Owners call it after releasing
// the association so late waiters fail fast instead of burning their
// timeout against a dead entity.
func (c *AppClient) MarkClosed() {
	c.abortOne.Do(func() { close(c.aborted) })
}

// Aborted reports whether the provider aborted the association.
func (c *AppClient) Aborted() bool {
	select {
	case <-c.aborted:
		return true
	default:
		return false
	}
}

// AwaitEvent waits for the next stream event.
func (c *AppClient) AwaitEvent(timeout time.Duration) (Event, error) {
	select {
	case ev := <-c.events:
		return ev, nil
	case <-c.aborted:
		return Event{}, ErrClosed
	case <-time.After(timeout):
		return Event{}, fmt.Errorf("%w: event", ErrTimeout)
	}
}
