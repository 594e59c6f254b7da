package mcam

import (
	"fmt"

	"xmovie/internal/spa"
)

// The stream machinery lives in internal/spa — the Stream Provider Agent
// subsystem that owns concurrent stream lifecycles. These aliases keep the
// historical mcam names working for callers that wire servers together.
type (
	// StreamDialer opens the MTP packet path from the server's SPA to the
	// address a client put in its Play request.
	StreamDialer = spa.StreamDialer
	// UDPDialer dials "host:port" UDP stream addresses.
	UDPDialer = spa.UDPDialer
	// SimNet is the in-process simulated stream network.
	SimNet = spa.SimNet
)

// NewSimNet returns an empty simulated stream network.
func NewSimNet() *SimNet { return spa.NewSimNet() }

// convertEvent maps an SPA lifecycle event onto the MCAM Event PDU. Final
// transmission counters ride in the detail string, so clients see the
// adaptive path's decisions (frames dropped, late sends) on the control
// association.
func convertEvent(e spa.Event) Event {
	out := Event{StreamID: e.StreamID, Position: e.Position, Detail: e.Detail}
	switch e.Kind {
	case spa.EventStarted:
		out.Kind = EventStreamStarted
	case spa.EventCompleted:
		out.Kind = EventStreamCompleted
	case spa.EventAborted:
		out.Kind = EventStreamAborted
	}
	if e.Stats != nil {
		summary := fmt.Sprintf("sent=%d dropped=%d late=%d bytes=%d",
			e.Stats.Sent, e.Stats.Dropped, e.Stats.Late, e.Stats.Bytes)
		if out.Detail == "" {
			out.Detail = summary
		} else {
			out.Detail += "; " + summary
		}
	}
	return out
}
