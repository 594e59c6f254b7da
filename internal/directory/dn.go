// Package directory implements the movie directory service of the MCAM
// architecture — the X.500 stand-in of Fig. 1's Directory level (DSA/DUA).
//
// The movie directory is "a repository for movie information, such as
// digital image format and storage location" (§2). Entries are named by
// distinguished names, held by DSAs that each master a naming context, and
// resolved across DSAs by chaining, mirroring X.500's distribution model
// without its wire protocols.
package directory

import (
	"fmt"
	"strings"
)

// RDN is one relative distinguished name component, e.g. cn=casablanca.
type RDN struct {
	Attr  string
	Value string
}

// String returns attr=value.
func (r RDN) String() string { return r.Attr + "=" + r.Value }

// DN is a distinguished name, root first: c=DE / o=mannheim / cn=movies.
type DN []RDN

// ParseDN parses "c=DE/o=uni/cn=movies". An empty string is the root.
func ParseDN(s string) (DN, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "/")
	dn := make(DN, 0, len(parts))
	for _, p := range parts {
		attr, val, ok := strings.Cut(p, "=")
		if !ok || attr == "" || val == "" {
			return nil, fmt.Errorf("directory: bad RDN %q in %q", p, s)
		}
		dn = append(dn, RDN{Attr: strings.TrimSpace(attr), Value: strings.TrimSpace(val)})
	}
	return dn, nil
}

// MustParseDN parses a statically known DN, panicking on error.
func MustParseDN(s string) DN {
	dn, err := ParseDN(s)
	if err != nil {
		panic(err)
	}
	return dn
}

// String renders the DN root-first with "/" separators. It is every entry's
// map and sort key, so it builds the string in one allocation.
func (d DN) String() string {
	n := 0
	for _, r := range d {
		n += len(r.Attr) + len(r.Value) + 2
	}
	var b strings.Builder
	b.Grow(n)
	for i, r := range d {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(r.Attr)
		b.WriteByte('=')
		b.WriteString(r.Value)
	}
	return b.String()
}

// Equal reports component-wise equality.
func (d DN) Equal(o DN) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is an ancestor-or-self of d.
func (d DN) HasPrefix(p DN) bool {
	if len(p) > len(d) {
		return false
	}
	for i := range p {
		if d[i] != p[i] {
			return false
		}
	}
	return true
}

// Parent returns the DN without its last RDN (nil for the root).
func (d DN) Parent() DN {
	if len(d) == 0 {
		return nil
	}
	return d[:len(d)-1]
}

// Child returns d extended by one RDN.
func (d DN) Child(attr, value string) DN {
	out := make(DN, len(d)+1)
	copy(out, d)
	out[len(d)] = RDN{Attr: attr, Value: value}
	return out
}

// Entry is one directory object: a DN plus multi-valued attributes.
type Entry struct {
	DN    DN
	Attrs map[string][]string
}

// Get returns the first value of attr ("" if absent).
func (e *Entry) Get(attr string) string {
	if vs := e.Attrs[attr]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// clone deep-copies the entry.
func (e *Entry) clone() *Entry {
	cp := &Entry{DN: append(DN(nil), e.DN...), Attrs: make(map[string][]string, len(e.Attrs))}
	for k, v := range e.Attrs {
		cp.Attrs[k] = append([]string(nil), v...)
	}
	return cp
}
