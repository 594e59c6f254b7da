package directory

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"xmovie/internal/stripe"
)

// Errors returned by directory operations.
var (
	ErrNoSuchEntry   = errors.New("directory: no such entry")
	ErrEntryExists   = errors.New("directory: entry exists")
	ErrNoSuchContext = errors.New("directory: no DSA masters this name")
	ErrLoopDetected  = errors.New("directory: chaining loop detected")
	// ErrHasChildren refuses removing a non-leaf entry (X.511
	// notAllowedOnNonLeaf).
	ErrHasChildren = errors.New("directory: entry has children")
	// ErrIsContext refuses removing the naming-context entry a DSA masters:
	// every entry it holds hangs below it.
	ErrIsContext = errors.New("directory: entry is the DSA's naming context")
)

// Agent is the operational interface of a directory system agent; DUAs and
// chaining DSAs both speak it. hops guards against referral loops.
type Agent interface {
	Read(dn DN, hops int) (*Entry, error)
	Search(base DN, scope Scope, filter Filter, hops int) ([]*Entry, error)
	Add(e *Entry, hops int) error
	Remove(dn DN, hops int) error
	Modify(dn DN, set map[string][]string, del []string, hops int) error
}

// MaxHops bounds chaining depth.
const MaxHops = 8

// dsaStripes is the entry-map stripe count (power of two). Striping lets
// thousands of concurrent sessions read and mirror attributes without
// serializing on one DSA-wide mutex; no operation locks more than two
// stripes at once.
const dsaStripes = 32

// dsaStripe is one independently locked slice of the entry map.
type dsaStripe struct {
	mu      sync.RWMutex
	entries map[string]*node
}

// node is one entry as its DSA holds it. key and stripe never change; the
// other fields are guarded by the lock of the node's own stripe — so a
// parent's child index lives, and is maintained, in the parent's stripe.
type node struct {
	key    string // the DN's string form: map key and result sort key
	stripe int
	entry  *Entry
	// children indexes the entries one level below this one.
	children map[*node]struct{}
	// gone marks a removed node, for walkers that reached it through a
	// child index before the removal.
	gone bool
}

// subordinate is a chaining target: the DSA mastering ctx.
type subordinate struct {
	ctx   DN
	agent Agent
}

// DSA is one directory system agent mastering a naming context (a DN
// prefix). Requests outside the context chain to the superior or to a
// subordinate DSA whose context covers the name. Entries are striped by DN
// hash; reads and modifications take one stripe lock, Add and Remove the
// entry's and its parent's.
type DSA struct {
	name    string
	context DN

	stripes [dsaStripes]dsaStripe

	// cfgMu guards the chaining topology, which changes only at setup time.
	cfgMu        sync.RWMutex
	subordinates []subordinate
	superior     Agent
}

var _ Agent = (*DSA)(nil)

// stripeFor returns the stripe index of an entry key (FNV-1a over the DN's
// string form).
func stripeFor(key string) int {
	return int(stripe.FNV32a(key) & (dsaStripes - 1))
}

// NewDSA creates a DSA mastering the given naming context. The context
// entry itself is created implicitly.
func NewDSA(name string, context DN) *DSA {
	d := &DSA{name: name, context: context}
	for i := range d.stripes {
		d.stripes[i].entries = make(map[string]*node)
	}
	key := context.String()
	n := &node{key: key, stripe: stripeFor(key), entry: &Entry{DN: context, Attrs: map[string][]string{
		"objectClass": {"namingContext"},
		"masteredBy":  {name},
	}}}
	d.stripes[n.stripe].entries[key] = n
	return d
}

// Name returns the DSA's administrative name.
func (d *DSA) Name() string { return d.name }

// Context returns the mastered naming context.
func (d *DSA) Context() DN { return d.context }

// SetSuperior wires the chaining parent.
func (d *DSA) SetSuperior(sup Agent) {
	d.cfgMu.Lock()
	d.superior = sup
	d.cfgMu.Unlock()
}

// AddSubordinate registers a child DSA mastering context ctx (which must
// extend this DSA's context).
func (d *DSA) AddSubordinate(ctx DN, sub Agent) error {
	if !ctx.HasPrefix(d.context) {
		return fmt.Errorf("directory: %s is not under %s", ctx, d.context)
	}
	ctx = append(DN(nil), ctx...)
	d.cfgMu.Lock()
	defer d.cfgMu.Unlock()
	for i := range d.subordinates {
		if d.subordinates[i].ctx.Equal(ctx) {
			d.subordinates[i].agent = sub
			return nil
		}
	}
	d.subordinates = append(d.subordinates, subordinate{ctx: ctx, agent: sub})
	return nil
}

// route finds the agent responsible for dn: this DSA, a subordinate, or the
// superior. It returns nil when this DSA itself is responsible.
func (d *DSA) route(dn DN) (Agent, error) {
	if dn.HasPrefix(d.context) {
		// Inside our context — but a subordinate may master a deeper
		// prefix.
		d.cfgMu.RLock()
		defer d.cfgMu.RUnlock()
		for _, s := range d.subordinates {
			if dn.HasPrefix(s.ctx) {
				return s.agent, nil
			}
		}
		return nil, nil
	}
	d.cfgMu.RLock()
	sup := d.superior
	d.cfgMu.RUnlock()
	if sup == nil {
		return nil, fmt.Errorf("%w: %s (context %s)", ErrNoSuchContext, dn, d.context)
	}
	return sup, nil
}

func checkHops(hops int) (int, error) {
	if hops >= MaxHops {
		return 0, ErrLoopDetected
	}
	return hops + 1, nil
}

// Read implements Agent.
func (d *DSA) Read(dn DN, hops int) (*Entry, error) {
	agent, err := d.route(dn)
	if err != nil {
		return nil, err
	}
	if agent != nil {
		h, err := checkHops(hops)
		if err != nil {
			return nil, err
		}
		return agent.Read(dn, h)
	}
	key := dn.String()
	st := &d.stripes[stripeFor(key)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	n, ok := st.entries[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	return n.entry.clone(), nil
}

// hit is one local or chained Search result with its sort key.
type hit struct {
	key   string
	entry *Entry
}

// Search implements Agent. Subtree searches also chain into subordinate
// contexts under the base. Results come in byte order of the DN string form.
func (d *DSA) Search(base DN, scope Scope, filter Filter, hops int) ([]*Entry, error) {
	agent, err := d.route(base)
	if err != nil {
		return nil, err
	}
	if agent != nil {
		h, err := checkHops(hops)
		if err != nil {
			return nil, err
		}
		return agent.Search(base, scope, filter, h)
	}
	if filter == nil {
		filter = All()
	}
	hits := d.walk(base, scope, filter)
	// Chain subtree searches into subordinate contexts under the base,
	// clipping the base to each subordinate's context (as X.518 subrequest
	// decomposition does) so the subordinate recognises it as its own.
	var subs []subordinate
	if scope == ScopeSubtree {
		d.cfgMu.RLock()
		for _, s := range d.subordinates {
			if s.ctx.HasPrefix(base) {
				subs = append(subs, s)
			}
		}
		d.cfgMu.RUnlock()
	}
	for _, s := range subs {
		h, err := checkHops(hops)
		if err != nil {
			return nil, err
		}
		more, err := s.agent.Search(s.ctx, scope, filter, h)
		if err != nil {
			return nil, err
		}
		for _, e := range more {
			hits = append(hits, hit{key: e.DN.String(), entry: e})
		}
	}
	// A pre-order walk is not byte order (cn=x-1 sorts before cn=x/cn=y),
	// so the hits are sorted once, on their keys.
	slices.SortFunc(hits, func(a, b hit) int { return strings.Compare(a.key, b.key) })
	out := make([]*Entry, len(hits))
	for i, h := range hits {
		out[i] = h.entry
	}
	return out, nil
}

// walk collects the local entries in scope that match filter by following
// the child index down from the base. It read-locks one node's stripe at a
// time, never two, so it cannot deadlock with Add or Remove; the result is
// consistent per entry but not an atomic snapshot — concurrent adds and
// removes may or may not appear. A scope other than ScopeBase and
// ScopeOneLevel is a subtree.
func (d *DSA) walk(base DN, scope Scope, filter Filter) []hit {
	key := base.String()
	st := &d.stripes[stripeFor(key)]
	st.mu.RLock()
	root := st.entries[key]
	st.mu.RUnlock()
	if root == nil {
		return nil
	}
	var hits []hit
	stack := []*node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st := &d.stripes[n.stripe]
		st.mu.RLock()
		if !n.gone {
			if (n != root || scope != ScopeOneLevel) && filter.Match(n.entry) {
				hits = append(hits, hit{key: n.key, entry: n.entry.clone()})
			}
			if scope != ScopeBase && (n == root || scope != ScopeOneLevel) {
				for c := range n.children {
					stack = append(stack, c)
				}
			}
		}
		st.mu.RUnlock()
	}
	return hits
}

// lockPair write-locks stripes a and b (once when equal) in ascending index
// order — the one order every two-stripe writer uses, so Add and Remove
// cannot deadlock each other.
func (d *DSA) lockPair(a, b int) {
	if a > b {
		a, b = b, a
	}
	d.stripes[a].mu.Lock()
	if b != a {
		d.stripes[b].mu.Lock()
	}
}

// unlockPair releases what lockPair(a, b) took.
func (d *DSA) unlockPair(a, b int) {
	d.stripes[a].mu.Unlock()
	if b != a {
		d.stripes[b].mu.Unlock()
	}
}

// Add implements Agent. The parent entry must exist.
func (d *DSA) Add(e *Entry, hops int) error {
	agent, err := d.route(e.DN)
	if err != nil {
		return err
	}
	if agent != nil {
		h, err := checkHops(hops)
		if err != nil {
			return err
		}
		return agent.Add(e, h)
	}
	if len(e.DN) == len(d.context) {
		// The naming-context entry exists from NewDSA on and is never
		// removed.
		return fmt.Errorf("%w: %s", ErrEntryExists, e.DN)
	}
	key := e.DN.String()
	n := &node{key: key, stripe: stripeFor(key), entry: e.clone()}
	parentKey := e.DN.Parent().String()
	pi := stripeFor(parentKey)
	// The entry's and its parent's stripes make the existence checks, the
	// insert and the parent's child index one atomic step.
	d.lockPair(n.stripe, pi)
	defer d.unlockPair(n.stripe, pi)
	if _, ok := d.stripes[n.stripe].entries[key]; ok {
		return fmt.Errorf("%w: %s", ErrEntryExists, e.DN)
	}
	p, ok := d.stripes[pi].entries[parentKey]
	if !ok {
		return fmt.Errorf("%w: parent %s", ErrNoSuchEntry, e.DN.Parent())
	}
	if p.children == nil {
		p.children = make(map[*node]struct{})
	}
	p.children[n] = struct{}{}
	d.stripes[n.stripe].entries[key] = n
	return nil
}

// Remove implements Agent. Entries with children and the naming-context
// entry cannot be removed.
func (d *DSA) Remove(dn DN, hops int) error {
	agent, err := d.route(dn)
	if err != nil {
		return err
	}
	if agent != nil {
		h, err := checkHops(hops)
		if err != nil {
			return err
		}
		return agent.Remove(dn, h)
	}
	if len(dn) == len(d.context) {
		return fmt.Errorf("%w: %s", ErrIsContext, dn)
	}
	key := dn.String()
	parentKey := dn.Parent().String()
	ti, pi := stripeFor(key), stripeFor(parentKey)
	// The same two stripes Add takes: the parent's child index answers
	// "has children?" and loses the entry in the same step.
	d.lockPair(ti, pi)
	defer d.unlockPair(ti, pi)
	n, ok := d.stripes[ti].entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	if len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrHasChildren, dn)
	}
	delete(d.stripes[ti].entries, key)
	delete(d.stripes[pi].entries[parentKey].children, n)
	n.gone = true
	return nil
}

// Modify implements Agent: set replaces attribute values; del removes
// attributes entirely.
func (d *DSA) Modify(dn DN, set map[string][]string, del []string, hops int) error {
	agent, err := d.route(dn)
	if err != nil {
		return err
	}
	if agent != nil {
		h, err := checkHops(hops)
		if err != nil {
			return err
		}
		return agent.Modify(dn, set, del, h)
	}
	key := dn.String()
	st := &d.stripes[stripeFor(key)]
	st.mu.Lock()
	defer st.mu.Unlock()
	n, ok := st.entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	for k, v := range set {
		n.entry.Attrs[k] = append([]string(nil), v...)
	}
	for _, k := range del {
		delete(n.entry.Attrs, k)
	}
	return nil
}

// DUA is the directory user agent: the client-side convenience API bound to
// some DSA (its "home DSA"), as the MCAM module's DUA submodule is.
type DUA struct {
	home Agent
}

// NewDUA binds a user agent to its home DSA.
func NewDUA(home Agent) *DUA { return &DUA{home: home} }

// Read fetches one entry.
func (u *DUA) Read(dn DN) (*Entry, error) { return u.home.Read(dn, 0) }

// Search queries entries under base.
func (u *DUA) Search(base DN, scope Scope, filter Filter) ([]*Entry, error) {
	return u.home.Search(base, scope, filter, 0)
}

// Add inserts an entry.
func (u *DUA) Add(e *Entry) error { return u.home.Add(e, 0) }

// Remove deletes an entry.
func (u *DUA) Remove(dn DN) error { return u.home.Remove(dn, 0) }

// Modify updates attributes.
func (u *DUA) Modify(dn DN, set map[string][]string, del []string) error {
	return u.home.Modify(dn, set, del, 0)
}
