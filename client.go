package xmovie

import "xmovie/internal/core"

// ClientConfig configures Dial.
type ClientConfig = core.ClientConfig

// Client is an MCAM client entity: the application interface of the paper's
// §4.1, one method per MCAM service element.
type Client = core.Client

// Dial connects to an MCAM server's control plane.
func Dial(addr string, cfg ClientConfig) (*Client, error) { return core.Dial(addr, cfg) }

// NewClientConn builds a client over an existing transport connection (e.g.
// one end of a Pipe served by Server.ServeConn).
func NewClientConn(conn Conn, cfg ClientConfig) (*Client, error) {
	return core.NewClientConn(conn, cfg)
}
