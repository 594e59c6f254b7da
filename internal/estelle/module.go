package estelle

import (
	"fmt"
	"time"
)

// Attr is an Estelle module attribute controlling parallelism semantics.
type Attr int

// Module attributes. (ISO 9074 §7; paper §4.)
const (
	// SystemProcess modules are independent tree roots whose process
	// children may run in parallel.
	SystemProcess Attr = iota + 1
	// SystemActivity modules are independent tree roots whose activity
	// children are mutually exclusive.
	SystemActivity
	// Process modules live inside a system module; their children may run
	// in parallel.
	Process
	// Activity modules live inside a system module; their children are
	// mutually exclusive and must themselves be activities.
	Activity
)

// String returns the Estelle keyword for the attribute.
func (a Attr) String() string {
	switch a {
	case SystemProcess:
		return "systemprocess"
	case SystemActivity:
		return "systemactivity"
	case Process:
		return "process"
	case Activity:
		return "activity"
	default:
		return fmt.Sprintf("Attr(%d)", int(a))
	}
}

// system reports whether the attribute designates a system module.
func (a Attr) system() bool { return a == SystemProcess || a == SystemActivity }

// activityLike reports whether children of a module with this attribute are
// mutually exclusive.
func (a Attr) activityLike() bool { return a == SystemActivity || a == Activity }

// Dispatch selects the transition-selection strategy for a module, the
// subject of the paper's §5.2 "mapping of transitions" comparison.
// ModuleDef.Dispatch is the only place a strategy is chosen: the product's
// modules leave it zero (the table), and experiment E4 sets
// DispatchLinear on its own defs to measure the other.
type Dispatch int

const (
	// DispatchLinear scans the full transition list in declaration order —
	// the paper's "hard-coded C++ code block chain".
	DispatchLinear Dispatch = iota + 1
	// DispatchTable indexes transitions by current state so only enabled-
	// in-state transitions are inspected — the paper's "table-controlled"
	// approach, reported significantly better above ~4 transitions.
	DispatchTable
)

// IPDef declares an interaction point of a module.
type IPDef struct {
	Name    string
	Channel *ChannelDef
	// Role is the role this module plays on the channel.
	Role string
}

// When names the interaction a transition waits for: head of the queue at
// interaction point IP with message name Msg.
type When struct {
	IP  string
	Msg string
}

// On is shorthand for a When clause.
func On(ip, msg string) When { return When{IP: ip, Msg: msg} }

// Trans is one Estelle transition.
type Trans struct {
	// Name is used in traces and generated code.
	Name string
	// From lists source states; empty means any state.
	From []string
	// To is the target state; empty means remain in the current state.
	To string
	// When, if non-zero, requires the named interaction at the head of the
	// IP's queue; the interaction is consumed when the transition fires.
	When When
	// Priority orders enabled transitions: smaller fires first (Estelle
	// `priority` clause). Ties break by declaration order.
	Priority int
	// Provided is the optional guard; it may inspect ctx.Msg.
	Provided func(ctx *Ctx) bool
	// Delay, if non-nil, returns the Estelle delay clause value: the
	// transition must be continuously enabled that long before firing.
	Delay func(ctx *Ctx) time.Duration
	// Action executes when the transition fires.
	Action func(ctx *Ctx)
}

// Body is the hook for modules whose body is "external" — declared in
// Estelle but implemented directly in Go (the paper implements DUA, SUA and
// EUA bodies in C++ this way, §4.1).
type Body interface {
	// Step gives the body a chance to consume queued interactions and
	// produce outputs. It reports whether it performed work; the scheduler
	// treats a working external body like a fired transition.
	Step(ctx *Ctx) bool
}

// BodyFunc adapts a function to the Body interface.
type BodyFunc func(ctx *Ctx) bool

// Step implements Body.
func (f BodyFunc) Step(ctx *Ctx) bool { return f(ctx) }

// ModuleDef is a module header plus body: interaction points, states,
// transitions, and initialization. Defs are immutable once instantiated and
// may be shared by many instances; a def shared across runtimes is built
// once with MustCompile.
type ModuleDef struct {
	Name string
	Attr Attr
	IPs  []IPDef
	// States lists the control states; the first is the initial state
	// unless Init sets another. Pure-body modules may have none.
	States []string
	Trans  []Trans
	// Dispatch defaults to DispatchTable when unset.
	Dispatch Dispatch
	// Init runs when an instance is created: initialize variables, create
	// child instances, connect/attach IPs.
	Init func(ctx *Ctx)
	// External, if non-nil, is an external body invoked by the scheduler.
	// A module may have both transitions and an external body, but
	// typically has one or the other.
	External Body
	// GroupRoot marks instances of this def as grouping roots for the
	// connection-per-unit mapping strategy (paper §3: per-connection
	// parallelism): an instance subtree rooted at a GroupRoot def is kept
	// in one unit.
	GroupRoot bool

	// compiled caches state indexing; built by MustCompile, or lazily by
	// compile() for a def only one runtime sees.
	compiled *compiledDef
}

// compiledDef holds the per-def derived structures shared by instances.
type compiledDef struct {
	stateIdx map[string]int
	// byState[s] lists transition indices whose From includes state s (or
	// is empty), in declaration order. Used by DispatchTable.
	byState [][]int
	// all lists every transition index (DispatchLinear).
	all []int
	// fromIdx[t] holds the state-index set of Trans t's From list (nil =
	// wildcard), used by DispatchLinear.
	fromIdx []map[int]bool
	// toIdx[t] is the target state index or -1.
	toIdx []int
	// whenIdx[t] is the IP index of Trans t's when-clause, or -1.
	whenIdx  []int
	hasTrans bool
	// hasDelay reports whether any transition carries a delay clause, so
	// instances without one skip all delay bookkeeping.
	hasDelay bool
	ipIdx    map[string]int
}

// MustCompile builds d's derived structures now and returns d; it panics
// if d is malformed. A def shared by many runtimes (a package-level
// protocol machine) is built with it at package initialisation, so the
// lazy compile at instantiation only ever reads the cache and concurrent
// runtimes never write the def. Nothing may modify d afterwards.
func MustCompile(d *ModuleDef) *ModuleDef {
	if _, err := d.compile(); err != nil {
		panic(err)
	}
	return d
}

// AsSystem returns a copy of def with the SystemProcess attribute, so a
// module written to run inside an entity can be added to a runtime on its
// own (tests that drive one protocol machine alone). def is left as it is,
// so a shared, compiled def may be passed.
func AsSystem(def *ModuleDef) *ModuleDef {
	sys := *def
	sys.Attr = SystemProcess
	return &sys
}

func (d *ModuleDef) compile() (*compiledDef, error) {
	if d.compiled != nil {
		return d.compiled, nil
	}
	c := &compiledDef{
		stateIdx: make(map[string]int, len(d.States)),
		ipIdx:    make(map[string]int, len(d.IPs)),
		hasTrans: len(d.Trans) > 0 || d.External != nil,
	}
	for i, s := range d.States {
		if _, dup := c.stateIdx[s]; dup {
			return nil, fmt.Errorf("estelle: module %s: duplicate state %q", d.Name, s)
		}
		c.stateIdx[s] = i
	}
	for i, ip := range d.IPs {
		if ip.Channel == nil {
			return nil, fmt.Errorf("estelle: module %s: IP %q has no channel", d.Name, ip.Name)
		}
		if _, err := ip.Channel.Peer(ip.Role); err != nil {
			return nil, fmt.Errorf("estelle: module %s: IP %q: %w", d.Name, ip.Name, err)
		}
		if _, dup := c.ipIdx[ip.Name]; dup {
			return nil, fmt.Errorf("estelle: module %s: duplicate IP %q", d.Name, ip.Name)
		}
		c.ipIdx[ip.Name] = i
	}
	nStates := len(d.States)
	if nStates == 0 {
		nStates = 1 // implicit single state
	}
	c.byState = make([][]int, nStates)
	c.fromIdx = make([]map[int]bool, len(d.Trans))
	c.toIdx = make([]int, len(d.Trans))
	c.whenIdx = make([]int, len(d.Trans))
	for ti := range d.Trans {
		t := &d.Trans[ti]
		c.all = append(c.all, ti)
		c.whenIdx[ti] = -1
		if t.Delay != nil {
			c.hasDelay = true
		}
		if t.When != (When{}) {
			idx, ok := c.ipIdx[t.When.IP]
			if !ok {
				return nil, fmt.Errorf("estelle: module %s: transition %q waits on unknown IP %q",
					d.Name, t.Name, t.When.IP)
			}
			c.whenIdx[ti] = idx
		}
		if t.To != "" {
			idx, ok := c.stateIdx[t.To]
			if !ok {
				return nil, fmt.Errorf("estelle: module %s: transition %q targets unknown state %q",
					d.Name, t.Name, t.To)
			}
			c.toIdx[ti] = idx
		} else {
			c.toIdx[ti] = -1
		}
		if len(t.From) == 0 {
			for s := range c.byState {
				c.byState[s] = append(c.byState[s], ti)
			}
			continue
		}
		set := make(map[int]bool, len(t.From))
		for _, from := range t.From {
			idx, ok := c.stateIdx[from]
			if !ok {
				return nil, fmt.Errorf("estelle: module %s: transition %q from unknown state %q",
					d.Name, t.Name, from)
			}
			set[idx] = true
			c.byState[idx] = append(c.byState[idx], ti)
		}
		c.fromIdx[ti] = set
	}
	// byState lists must preserve declaration order; appends above iterate
	// transitions in order, so they already do.
	d.compiled = c
	return c, nil
}
