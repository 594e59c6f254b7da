package spa

import (
	"fmt"
	"sync"

	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
)

// StreamDialer opens the MTP packet path from a Stream Provider Agent to
// the address a client put in its Play request. Implementations: UDPDialer
// for real sockets, SimNet for in-process simulated paths.
type StreamDialer interface {
	DialStream(addr string) (mtp.StreamConn, error)
}

// UDPDialer dials "host:port" UDP stream addresses.
type UDPDialer struct{}

var _ StreamDialer = UDPDialer{}

// DialStream implements StreamDialer.
func (UDPDialer) DialStream(addr string) (mtp.StreamConn, error) {
	return mtp.DialUDP(addr)
}

// SimNet is an in-process stream network: clients register a receiving
// endpoint under a name; the server's SPA dials that name. It substitutes
// the paper's FDDI segment between server and clients, with per-path
// shaping via netsim. The reverse direction of each path is unshaped and
// carries the receiver's MTP feedback.
type SimNet struct {
	mu    sync.Mutex
	paths map[string]*netsim.Endpoint
	links map[string]*netsim.Link
}

var _ StreamDialer = (*SimNet)(nil)

// NewSimNet returns an empty simulated stream network.
func NewSimNet() *SimNet {
	return &SimNet{paths: make(map[string]*netsim.Endpoint), links: make(map[string]*netsim.Link)}
}

// Listen creates a shaped path named addr and returns the client-side
// (receiving) endpoint. The server-side endpoint is handed out by
// DialStream.
func (n *SimNet) Listen(addr string, toClient netsim.Config) (*netsim.Endpoint, error) {
	serverEnd, clientEnd, link := netsim.NewLink(toClient, netsim.Config{})
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.paths[addr]; ok {
		link.Close()
		return nil, fmt.Errorf("spa: stream address %q in use", addr)
	}
	n.paths[addr] = serverEnd
	n.links[addr] = link
	return clientEnd, nil
}

// Link returns the shaped link behind path addr, for runtime chaos on a
// live stream: Link.Partition, Link.Spike and Link.SetConfig degrade the
// path mid-flight without touching either endpoint.
func (n *SimNet) Link(addr string) (*netsim.Link, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[addr]
	return l, ok
}

// DialStream implements StreamDialer.
func (n *SimNet) DialStream(addr string) (mtp.StreamConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.paths[addr]
	if !ok {
		return nil, fmt.Errorf("spa: unknown stream address %q", addr)
	}
	return ep, nil
}

// Close tears down all simulated links.
func (n *SimNet) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		l.Close()
	}
	n.links = make(map[string]*netsim.Link)
	n.paths = make(map[string]*netsim.Endpoint)
}
