// Package xmovie is a Go implementation of MCAM — the application-layer
// protocol for Movie Control, Access and Management of Keller, Fischer and
// Effelsberg (ICDCS 1994) — together with the complete system the paper
// describes: an Estelle formal-description runtime with parallel module
// scheduling, an Estelle parser and Go code generator, ISO session and
// presentation layer kernels, an ASN.1/BER codec, a hand-coded
// ISODE-equivalent stack, an X.500-style movie directory, a simulated
// equipment control system, a movie database, and the XMovie MTP
// continuous-media stream protocol.
//
// The public API is this package: run a Server over a movie store, Dial it
// with a Client, and control movie playback; the continuous-media frames
// travel separately over MTP. See examples/ for runnable programs and
// DESIGN.md for the system inventory.
package xmovie

import (
	"embed"

	"xmovie/internal/core"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/spa"
	"xmovie/internal/transport"
)

// Specs holds the Estelle formal specifications this repository is built
// from (specs/*.est): the methodology's inputs, usable with the estparse
// interpreter and estgen code generator.
//
//go:embed specs/*.est
var Specs embed.FS

// Re-exported protocol types: the request/response vocabulary of MCAM.
type (
	// Request is one MCAM operation invocation.
	Request = mcam.Request
	// Response answers a Request.
	Response = mcam.Response
	// Event is a server-initiated stream notification.
	Event = mcam.Event
	// Attr is one movie attribute.
	Attr = mcam.Attr
	// Op is an MCAM operation code.
	Op = mcam.Op
	// Status is an MCAM response status.
	Status = mcam.Status
	// ServerEnv bundles the services a server operates on.
	ServerEnv = mcam.ServerEnv
	// SimNet is the in-process simulated stream network.
	SimNet = spa.SimNet
	// StackKind selects the generated or hand-coded control stack.
	StackKind = core.StackKind
	// StatusError is an operation the server answered with a non-OK status.
	StatusError = core.StatusError
	// Movie is a stored movie.
	Movie = moviedb.Movie
	// Store is a movie repository.
	Store = moviedb.Store
	// Recorder is an open live-append session on a movie (Store.Record):
	// while one is open the movie is live — plays follow its growing tail
	// and Delete refuses with moviedb.ErrLive. Close seals the movie.
	Recorder = moviedb.Recorder
	// Conn is a reliable, ordered control-plane transport connection.
	Conn = transport.Conn
)

// Operation codes.
const (
	OpCreate           = mcam.OpCreate
	OpDelete           = mcam.OpDelete
	OpSelect           = mcam.OpSelect
	OpDeselect         = mcam.OpDeselect
	OpQueryAttributes  = mcam.OpQueryAttributes
	OpModifyAttributes = mcam.OpModifyAttributes
	OpListMovies       = mcam.OpListMovies
	OpPlay             = mcam.OpPlay
	OpRecord           = mcam.OpRecord
	OpPause            = mcam.OpPause
	OpResume           = mcam.OpResume
	OpStop             = mcam.OpStop
	OpSeek             = mcam.OpSeek
)

// Response statuses.
const (
	StatusSuccess     = mcam.StatusSuccess
	StatusNoSuchMovie = mcam.StatusNoSuchMovie
	StatusMovieExists = mcam.StatusMovieExists
	// StatusBusy answers a connection the server shed at admission: the
	// session limit is reached, and Response.RetryAfterMs hints when to
	// retry. ReconnectClient honours it automatically.
	StatusBusy = mcam.StatusBusy
)

// Errors surfaced by the client. Both are classified as retryable by
// ReconnectClient.
var (
	// ErrTimeout reports a call (or association setup) that exceeded
	// ClientConfig.CallTimeout — a dead or wedged server, not a protocol
	// refusal.
	ErrTimeout = mcam.ErrTimeout
	// ErrClosed reports a closed or severed association: calls and
	// AwaitEvent fail with it immediately instead of burning a timeout.
	ErrClosed = mcam.ErrClosed
)

// Stream event kinds.
const (
	EventStreamStarted   = mcam.EventStreamStarted
	EventStreamProgress  = mcam.EventStreamProgress
	EventStreamCompleted = mcam.EventStreamCompleted
	EventStreamAborted   = mcam.EventStreamAborted
)

// Control stacks.
const (
	// StackGenerated runs MCAM over the Estelle-generated session and
	// presentation modules (the paper's first stack).
	StackGenerated = core.StackGenerated
	// StackHandcoded runs MCAM directly over the hand-coded
	// ISODE-equivalent library (the paper's second stack).
	StackHandcoded = core.StackHandcoded
)

// NewMemStore returns an empty in-memory movie store.
func NewMemStore() *moviedb.MemStore { return moviedb.NewMemStore() }

// NewShardedStore returns an empty striped-lock movie store sized for many
// concurrent sessions (shards 0 = a sensible default).
func NewShardedStore(shards int) *moviedb.ShardedStore { return moviedb.NewShardedStore(shards) }

// OpenDiskStore opens (creating if needed) a durable movie store rooted at
// dir: per-movie segment files striped over disk shards, served as lazy
// frame sources through a bounded LRU chunk cache. Reopening a store
// recovers from torn appends (crash mid-record) by truncating the partial
// tail and rebuilding the frame index. Close it when done; movies created
// or recorded through it survive process restarts.
func OpenDiskStore(dir string) (*moviedb.ShardedStore, error) {
	return moviedb.OpenShardedDiskStore(dir, 0, moviedb.DiskConfig{})
}

// Pipe returns two connected in-memory transport endpoints; hand one to
// Server.ServeConn and the other to NewClientConn.
func Pipe() (Conn, Conn) { return transport.Pipe(0) }

// SynthMovie builds a deterministic synthetic movie (the stand-in for
// digitized movie material). Frames are generated lazily: nothing is
// materialized until a stream pulls frames, and each playback keeps at
// most a small chunk window resident — the form the streaming data plane
// serves at scale. Movies are readable while appendable, so a SynthMovie
// can be recorded onto (even mid-play) without materializing its base.
func SynthMovie(name string, frames, frameRate int) *Movie {
	return moviedb.SynthesizeLazy(moviedb.SynthConfig{
		Name: name, Frames: frames, FrameRate: frameRate, Format: moviedb.FormatMJPEG,
	})
}

// NewSimNet returns an in-process simulated stream network for Play
// targets. Production deployments use UDP addresses and UDPDialer instead.
func NewSimNet() *SimNet { return spa.NewSimNet() }

// UDPDialer dials real UDP stream addresses.
func UDPDialer() spa.StreamDialer { return spa.UDPDialer{} }
