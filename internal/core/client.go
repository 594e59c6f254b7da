package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"xmovie/internal/estelle"
	"xmovie/internal/mcam"
	"xmovie/internal/transport"
)

// calledSelector names the server entity a client associates with.
const calledSelector = "mcam-server"

// ErrBadStack reports an unsupported stack kind.
var ErrBadStack = errors.New("core: unsupported stack kind")

// Client is an MCAM client entity over either stack: the application
// interface of the paper's §4.1, one synchronous method per MCAM service
// element.
type Client struct {
	// Generated-stack state.
	rt    *estelle.Runtime
	sched *estelle.Scheduler
	app   *mcam.AppClient

	// Hand-coded-stack state.
	iso *mcam.IsodeClient

	conn        transport.Conn
	callTimeout time.Duration
	closed      atomic.Bool
}

// ClientConfig configures Dial.
type ClientConfig struct {
	// Stack selects the control stack (default StackGenerated).
	Stack StackKind
	// CallTimeout bounds association setup and each Call on both stacks
	// (default 30s): a dead or wedged server returns ErrTimeout instead of
	// hanging the client forever.
	CallTimeout time.Duration
}

// Dial connects to an MCAM server at the TPKT address addr.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(conn, cfg)
}

// NewClientConn builds a client entity over an existing transport
// connection (e.g. one end of a Pipe served by Server.ServeConn).
func NewClientConn(conn transport.Conn, cfg ClientConfig) (*Client, error) {
	if cfg.Stack == 0 {
		cfg.Stack = StackGenerated
	}
	dialTimeout := defaultDialTimeout
	callTimeout := defaultCallTimeout
	if cfg.CallTimeout > 0 {
		dialTimeout = cfg.CallTimeout
		callTimeout = cfg.CallTimeout
	}
	c := &Client{conn: conn, callTimeout: callTimeout}
	switch cfg.Stack {
	case StackHandcoded:
		iso, err := mcam.DialIsodeTimeout(conn, calledSelector, callTimeout)
		if err != nil {
			conn.Close()
			return nil, err
		}
		c.iso = iso
	case StackGenerated:
		c.rt = estelle.NewRuntime()
		entity, err := c.rt.AddSystem(ClientEntityDef(conn), "client")
		if err != nil {
			conn.Close()
			return nil, err
		}
		c.app = mcam.NewAppClient(entity.IP("U"))
		c.sched = estelle.NewScheduler(c.rt, estelle.MapPerGroupRoot)
		if err := c.sched.Start(); err != nil {
			conn.Close()
			return nil, err
		}
		if err := c.app.Connect(calledSelector, dialTimeout); err != nil {
			c.sched.Stop()
			conn.Close()
			return nil, err
		}
	default:
		conn.Close()
		return nil, ErrBadStack
	}
	return c, nil
}

// App returns the generated-stack application interface (nil when
// hand-coded).
func (c *Client) App() *mcam.AppClient { return c.app }

// Iso returns the hand-coded client (nil when generated).
func (c *Client) Iso() *mcam.IsodeClient { return c.iso }

// Call performs one raw MCAM operation over whichever stack is active.
func (c *Client) Call(req *mcam.Request) (*mcam.Response, error) {
	if c.iso != nil {
		return c.iso.Call(req)
	}
	return c.app.Call(req, c.callTimeout)
}

// Close releases the association and tears the entity down. Afterwards any
// waiter still blocked in Call or AwaitEvent fails fast with ErrClosed, and
// a second Close sends nothing and returns ErrClosed.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return mcam.ErrClosed
	}
	var err error
	if c.iso != nil {
		err = c.iso.Close()
	} else {
		err = c.app.Release(c.callTimeout)
		c.sched.Stop()
		c.app.MarkClosed()
	}
	_ = c.conn.Close()
	return err
}

// StatusError is a non-OK response folded into an error by the per-operation
// methods: the server answered, and refused the operation. Every other
// error from them means the association, not the request, failed.
type StatusError struct {
	Op       mcam.Op
	Response *mcam.Response
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("xmovie: %s: %s (%s)", e.Op, e.Response.Status, e.Response.Diagnostic)
}

// do runs a request and folds a non-OK response into a *StatusError.
func (c *Client) do(req *mcam.Request) (*mcam.Response, error) {
	resp, err := c.Call(req)
	if err != nil {
		return nil, err
	}
	if !resp.OK() {
		return resp, &StatusError{Op: req.Op, Response: resp}
	}
	return resp, nil
}

// List returns the server's movie names.
func (c *Client) List() ([]string, error) {
	resp, err := c.do(&mcam.Request{Op: mcam.OpListMovies})
	if err != nil {
		return nil, err
	}
	return resp.Movies, nil
}

// Create registers a new (empty) movie with attributes.
func (c *Client) Create(name string, frameRate int, attrs map[string]string) error {
	req := &mcam.Request{Op: mcam.OpCreate, Movie: name, FrameRate: int64(frameRate)}
	for k, v := range attrs {
		req.Attrs = append(req.Attrs, mcam.Attr{Name: k, Value: v})
	}
	_, err := c.do(req)
	return err
}

// Delete removes a movie.
func (c *Client) Delete(name string) error {
	_, err := c.do(&mcam.Request{Op: mcam.OpDelete, Movie: name})
	return err
}

// Select opens a movie for subsequent control operations and returns its
// frame count and frame rate.
func (c *Client) Select(name string) (length int64, frameRate int64, err error) {
	resp, err := c.do(&mcam.Request{Op: mcam.OpSelect, Movie: name})
	if err != nil {
		return 0, 0, err
	}
	return resp.Length, resp.FrameRate, nil
}

// Query returns a movie's attributes (the selected movie when name is "").
func (c *Client) Query(name string) (map[string]string, error) {
	resp, err := c.do(&mcam.Request{Op: mcam.OpQueryAttributes, Movie: name})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(resp.Attrs))
	for _, a := range resp.Attrs {
		out[a.Name] = a.Value
	}
	return out, nil
}

// Modify updates attributes (empty value deletes a key).
func (c *Client) Modify(name string, attrs map[string]string) error {
	req := &mcam.Request{Op: mcam.OpModifyAttributes, Movie: name}
	for k, v := range attrs {
		req.Attrs = append(req.Attrs, mcam.Attr{Name: k, Value: v})
	}
	_, err := c.do(req)
	return err
}

// Play starts streaming the movie to streamAddr (a SimNet name or UDP
// address the server's dialer understands) and returns the stream id.
func (c *Client) Play(name, streamAddr string) (streamID int64, err error) {
	return c.PlayFrom(name, streamAddr, 0, 0)
}

// PlayFrom starts streaming from a frame position with an optional frame
// count (0 = to the end).
func (c *Client) PlayFrom(name, streamAddr string, position, count int64) (int64, error) {
	resp, err := c.do(&mcam.Request{Op: mcam.OpPlay, Movie: name, StreamAddr: streamAddr,
		Position: position, Count: count})
	if err != nil {
		return 0, err
	}
	return resp.StreamID, nil
}

// Record captures count frames from the named equipment device into the
// movie and returns the new length.
func (c *Client) Record(movie, device string, count int64) (int64, error) {
	resp, err := c.do(&mcam.Request{Op: mcam.OpRecord, Movie: movie, Device: device, Count: count})
	if err != nil {
		return 0, err
	}
	return resp.Length, nil
}

// Pause suspends a stream.
func (c *Client) Pause(streamID int64) error {
	_, err := c.do(&mcam.Request{Op: mcam.OpPause, StreamID: streamID})
	return err
}

// Resume continues a paused stream.
func (c *Client) Resume(streamID int64) error {
	_, err := c.do(&mcam.Request{Op: mcam.OpResume, StreamID: streamID})
	return err
}

// Stop cancels a stream and returns the position reached.
func (c *Client) Stop(streamID int64) (int64, error) {
	resp, err := c.do(&mcam.Request{Op: mcam.OpStop, StreamID: streamID})
	if err != nil {
		return 0, err
	}
	return resp.Position, nil
}

// SeekTo repositions the active stream streamID to position — live, without
// restarting the transmission; the receiver resynchronizes on the MTP sync
// flag. With streamID 0 (or a finished stream) it validates the position
// against the selected movie for a later PlayFrom.
func (c *Client) SeekTo(streamID, position int64) (int64, error) {
	resp, err := c.do(&mcam.Request{Op: mcam.OpSeek, StreamID: streamID, Position: position})
	if err != nil {
		return 0, err
	}
	return resp.Position, nil
}

// AwaitEvent blocks for the next stream event on either stack, bounded by
// timeout (ErrTimeout). A closed or severed association returns ErrClosed
// immediately instead of burning the timeout.
func (c *Client) AwaitEvent(timeout time.Duration) (mcam.Event, error) {
	if c.iso != nil {
		return c.iso.AwaitEventTimeout(timeout)
	}
	return c.app.AwaitEvent(timeout)
}
