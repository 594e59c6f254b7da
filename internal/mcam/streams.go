package mcam

import (
	"fmt"

	"xmovie/internal/spa"
)

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
