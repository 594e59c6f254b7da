package mcam

import (
	"time"

	"xmovie/internal/isode"
	"xmovie/internal/transport"
)

// ServeBusy is the graceful-degradation answer to overload: instead of
// closing an over-limit connection at admission (which a client can only
// see as a raw transport failure), the server accepts the association and
// answers every request with StatusBusy carrying retryAfter as the
// RetryAfterMs hint, so clients can back off deliberately rather than
// retry blind. It shares ServeIsode's serving loop, answering StatusBusy
// where ServeIsode executes the request; a PDU that is no request gets
// StatusProtocolError from both. Both control stacks speak the same wire
// protocol, so the one hand-coded responder serves clients of either.
//
// The responder's whole lifetime is bounded — it exists to shed load, not
// to hold a session slot in disguise: after roughly retryAfter plus a
// grace it closes the connection and returns. It owns conn.
func ServeBusy(conn transport.Conn, retryAfter time.Duration) error {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	dc := transport.NewDeadlineConn(conn)
	defer dc.Close()
	dc.SetRecvDeadline(time.Now().Add(retryAfter + 2*time.Second))
	prov, _, err := isode.Accept(dc, acceptAll)
	if err != nil {
		return err
	}
	return serveRequests(prov, func(req *Request) *Response {
		return &Response{
			InvokeID:     req.InvokeID,
			Op:           req.Op,
			Status:       StatusBusy,
			Diagnostic:   "server at session capacity",
			RetryAfterMs: retryAfter.Milliseconds(),
		}
	})
}
