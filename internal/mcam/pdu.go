// Package mcam implements MCAM — the application-layer protocol for Movie
// Control, Access and Management that is the paper's subject.
//
// MCAM lets a user access (create, delete, select), manage (query and
// modify attributes) and control (play, record, pause, resume, stop, seek)
// movies held by remote server entities (paper §2, and ref [19] for the
// service definition). PDUs are specified in ASN.1 and encoded in BER; the
// protocol runs over the presentation service of either control stack: the
// Estelle-generated session+presentation modules, or the hand-coded
// ISODE-equivalent library.
//
// The data plane is deliberately separate: Play responses only carry stream
// coordinates; the movie itself travels via the MTP stream protocol.
package mcam

import "fmt"

// ContextID is the presentation context MCAM PDUs travel on.
const ContextID int64 = 1

// AbstractSyntax names the MCAM PDU syntax in presentation negotiation.
const AbstractSyntax = "mcam-pci-v1"

// ModuleText is the ASN.1 definition of all MCAM PDUs (refs [9], [16]: the
// paper generated its C++ codecs from such a module). It is the spec of
// record for the typed codec (pdu_append.go, pdu_decode.go), which the tests
// check against the asn1ber schema codec compiled from it.
const ModuleText = `
MCAM-PDUs DEFINITIONS ::= BEGIN

  Operation ::= ENUMERATED {
     create(1), delete(2), select(3), deselect(4),
     queryAttributes(5), modifyAttributes(6), listMovies(7),
     play(8), record(9), pause(10), resume(11), stop(12), seek(13)
  }

  Status ::= ENUMERATED {
     success(0), noSuchMovie(1), movieExists(2), notSelected(3),
     badState(4), directoryError(5), equipmentError(6), protocolError(7),
     streamError(8), notSupported(9), busy(10)
  }

  Attribute ::= SEQUENCE {
     name   UTF8String,
     value  UTF8String
  }

  Request ::= SEQUENCE {
     invokeID    INTEGER,
     op          Operation,
     movie       [0]  UTF8String OPTIONAL,
     attrs       [1]  SEQUENCE OF Attribute OPTIONAL,
     format      [2]  INTEGER OPTIONAL,
     frameRate   [3]  INTEGER OPTIONAL,
     position    [4]  INTEGER OPTIONAL,
     count       [5]  INTEGER OPTIONAL,
     device      [6]  UTF8String OPTIONAL,
     streamAddr  [7]  UTF8String OPTIONAL,
     streamID    [8]  INTEGER OPTIONAL
  }

  Response ::= SEQUENCE {
     invokeID    INTEGER,
     op          Operation,
     status      Status,
     diagnostic  [0]  UTF8String OPTIONAL,
     movies      [1]  SEQUENCE OF UTF8String OPTIONAL,
     attrs       [2]  SEQUENCE OF Attribute OPTIONAL,
     position    [3]  INTEGER OPTIONAL,
     length      [4]  INTEGER OPTIONAL,
     frameRate   [5]  INTEGER OPTIONAL,
     streamID    [6]  INTEGER OPTIONAL,
     retryAfterMs [7] INTEGER OPTIONAL
  }

  EventKind ::= ENUMERATED {
     streamStarted(1), streamProgress(2), streamCompleted(3), streamAborted(4)
  }

  Event ::= SEQUENCE {
     kind      EventKind,
     streamID  INTEGER,
     position  [0] INTEGER OPTIONAL,
     detail    [1] UTF8String OPTIONAL
  }

  MoviePDU ::= CHOICE {
     request  [1] Request,
     response [2] Response,
     event    [3] Event
  }
END
`

// Op is an MCAM operation code.
type Op int64

// Operations, grouped as the paper groups them: access, management,
// control.
const (
	OpCreate Op = iota + 1
	OpDelete
	OpSelect
	OpDeselect
	OpQueryAttributes
	OpModifyAttributes
	OpListMovies
	OpPlay
	OpRecord
	OpPause
	OpResume
	OpStop
	OpSeek
)

// String returns the operation name.
func (o Op) String() string {
	names := [...]string{"", "create", "delete", "select", "deselect",
		"queryAttributes", "modifyAttributes", "listMovies",
		"play", "record", "pause", "resume", "stop", "seek"}
	if o >= 1 && int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", int64(o))
}

// Status is an MCAM response status.
type Status int64

// Response statuses.
const (
	StatusSuccess Status = iota
	StatusNoSuchMovie
	StatusMovieExists
	StatusNotSelected
	StatusBadState
	StatusDirectoryError
	StatusEquipmentError
	StatusProtocolError
	StatusStreamError
	// StatusNotSupported reports an operation the movie's storage backend
	// cannot perform (e.g. appending frames to content it cannot
	// materialize).
	StatusNotSupported
	// StatusBusy reports a server refusing new work under overload; the
	// response's RetryAfterMs hints when the client should try again.
	StatusBusy
)

// String returns the status name.
func (s Status) String() string {
	names := [...]string{"success", "noSuchMovie", "movieExists", "notSelected",
		"badState", "directoryError", "equipmentError", "protocolError", "streamError",
		"notSupported", "busy"}
	if s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Status(%d)", int64(s))
}

// Attr is one movie attribute in a PDU.
type Attr struct {
	Name  string
	Value string
}

// Request is an MCAM operation invocation.
type Request struct {
	InvokeID int64
	Op       Op
	Movie    string
	Attrs    []Attr
	// Format and FrameRate apply to create.
	Format    int64
	FrameRate int64
	// Position is a frame index (seek, play start).
	Position int64
	// Count bounds play/record frame counts (0 = whole movie / default).
	Count int64
	// Device names the capture source for record.
	Device string
	// StreamAddr tells the server where to send (play) the MTP stream.
	StreamAddr string
	// StreamID labels the MTP stream of play/record.
	StreamID int64
}

// Response answers a Request, matched by InvokeID.
type Response struct {
	InvokeID   int64
	Op         Op
	Status     Status
	Diagnostic string
	Movies     []string
	Attrs      []Attr
	Position   int64
	Length     int64
	FrameRate  int64
	StreamID   int64
	// RetryAfterMs accompanies StatusBusy: the server's hint for how long
	// the client should back off before retrying (milliseconds).
	RetryAfterMs int64
}

// OK reports a success status.
func (r *Response) OK() bool { return r.Status == StatusSuccess }

// EventKind classifies stream notifications.
type EventKind int64

// Stream event kinds.
const (
	EventStreamStarted EventKind = iota + 1
	EventStreamProgress
	EventStreamCompleted
	EventStreamAborted
)

// Event is a server-initiated stream notification.
type Event struct {
	Kind     EventKind
	StreamID int64
	Position int64
	Detail   string
}

// PDU is the MCAM protocol data unit; exactly one field is non-nil.
type PDU struct {
	Request  *Request
	Response *Response
	Event    *Event
}

// Encode produces the BER encoding of the PDU (see pdu_append.go).
func (p *PDU) Encode() ([]byte, error) {
	return p.Append(nil)
}
