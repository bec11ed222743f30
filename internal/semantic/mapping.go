package semantic

import (
	"fmt"
	"sort"

	"stopss/internal/message"
)

// MappingFunc is the paper's third approach (§3.1): a many-to-many
// function correlating one or more attribute/value pairs of an event to
// one or more semantically related attribute/value pairs. Mapping
// functions are supplied by domain experts; the ontology compiler
// (internal/ontology) builds them from declarative rules, and Go code
// can implement the interface directly for arbitrary relationships.
type MappingFunc interface {
	// Name identifies the function in diagnostics and stats.
	Name() string
	// Triggers lists the attributes whose presence in an event makes
	// the function applicable. The registry hashes on these, so a
	// publication only ever sees the functions that can fire for it
	// (the paper's hash-structure performance requirement).
	Triggers() []string
	// Apply inspects the event and returns derived pairs, or nil when
	// the function does not apply. Implementations must not mutate e.
	Apply(e message.Event) []message.Pair
}

// Mappings is the registry of mapping functions, hashed by trigger
// attribute. Multiple functions may share a trigger ("It is possible to
// have many mapping functions for each attribute").
type Mappings struct {
	byTrigger map[string][]MappingFunc
	names     map[string]MappingFunc
	count     int
}

// NewMappings returns an empty registry.
func NewMappings() *Mappings {
	return &Mappings{
		byTrigger: make(map[string][]MappingFunc),
		names:     make(map[string]MappingFunc),
	}
}

// Add registers a mapping function under every one of its triggers.
// Functions must have unique, non-empty names and at least one trigger.
func (m *Mappings) Add(f MappingFunc) error {
	if f.Name() == "" {
		return fmt.Errorf("semantic: mapping function needs a name")
	}
	if _, dup := m.names[f.Name()]; dup {
		return fmt.Errorf("semantic: mapping function %q already registered", f.Name())
	}
	trigs := f.Triggers()
	if len(trigs) == 0 {
		return fmt.Errorf("semantic: mapping function %q has no trigger attributes", f.Name())
	}
	for _, t := range trigs {
		if t == "" {
			return fmt.Errorf("semantic: mapping function %q has an empty trigger", f.Name())
		}
	}
	m.names[f.Name()] = f
	m.count++
	seen := make(map[string]bool, len(trigs))
	for _, t := range trigs {
		if seen[t] {
			continue
		}
		seen[t] = true
		m.byTrigger[t] = append(m.byTrigger[t], f)
	}
	return nil
}

// Len reports the number of registered functions.
func (m *Mappings) Len() int { return m.count }

// Func returns the registered function with the given name.
func (m *Mappings) Func(name string) (MappingFunc, bool) {
	f, ok := m.names[name]
	return f, ok
}

// Has reports whether a function with the given name is registered.
func (m *Mappings) Has(name string) bool {
	_, ok := m.names[name]
	return ok
}

// Remove unregisters a function by name (the Retire operation of the
// runtime knowledge base), reporting whether it existed.
func (m *Mappings) Remove(name string) bool {
	if _, ok := m.names[name]; !ok {
		return false
	}
	delete(m.names, name)
	m.count--
	for trig, fns := range m.byTrigger {
		kept := fns[:0]
		for _, f := range fns {
			if f.Name() != name {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			delete(m.byTrigger, trig)
		} else {
			m.byTrigger[trig] = kept
		}
	}
	return true
}

// Clone returns a copy sharing no mutable registry state with the
// original (the MappingFunc values themselves, being immutable by
// contract, are shared). Copy-on-write support for the runtime
// knowledge base.
func (m *Mappings) Clone() *Mappings {
	c := &Mappings{
		byTrigger: make(map[string][]MappingFunc, len(m.byTrigger)),
		names:     make(map[string]MappingFunc, len(m.names)),
		count:     m.count,
	}
	for t, fns := range m.byTrigger {
		c.byTrigger[t] = append([]MappingFunc(nil), fns...)
	}
	for n, f := range m.names {
		c.names[n] = f
	}
	return c
}

// Applicable returns the functions triggered by any attribute of the
// event, each at most once, in registration order per trigger. Lookup is
// one hash probe per pair.
func (m *Mappings) Applicable(e message.Event) []MappingFunc { return m.applicable(e.Pairs()) }

// applicable is Applicable over a run of pairs: the saturation loop asks
// only for the functions its newest pairs trigger.
func (m *Mappings) applicable(pairs []message.Pair) []MappingFunc {
	if m.count == 0 {
		return nil
	}
	var out []MappingFunc
	for _, pair := range pairs {
	next:
		for _, f := range m.byTrigger[pair.Attr] {
			for _, g := range out {
				if g.Name() == f.Name() {
					continue next
				}
			}
			out = append(out, f)
		}
	}
	return out
}

// Names returns the registered function names, sorted.
func (m *Mappings) Names() []string {
	out := make([]string, 0, len(m.names))
	for n := range m.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Merge copies every function of o into m (multi-domain operation and
// inter-domain bridging, paper §3.2: "it is possible to provide
// inter-domain mapping by simply adding additional functions").
func (m *Mappings) Merge(o *Mappings) error {
	// Collect distinct functions of o in deterministic order.
	var fns []MappingFunc
	seen := make(map[string]bool)
	trigs := make([]string, 0, len(o.byTrigger))
	for t := range o.byTrigger {
		trigs = append(trigs, t)
	}
	sort.Strings(trigs)
	for _, t := range trigs {
		for _, f := range o.byTrigger[t] {
			if !seen[f.Name()] {
				seen[f.Name()] = true
				fns = append(fns, f)
			}
		}
	}
	for _, f := range fns {
		if err := m.Add(f); err != nil {
			return err
		}
	}
	return nil
}

// FuncOf builds a MappingFunc from a closure; the common case for
// programmatic registration.
type FuncOf struct {
	FName     string
	FTriggers []string
	FApply    func(message.Event) []message.Pair
}

// Name implements MappingFunc.
func (f FuncOf) Name() string { return f.FName }

// Triggers implements MappingFunc.
func (f FuncOf) Triggers() []string { return f.FTriggers }

// Apply implements MappingFunc.
func (f FuncOf) Apply(e message.Event) []message.Pair { return f.FApply(e) }

// PairMap is a declarative mapping function relating a single
// attribute/value pair to a set of derived pairs, e.g.
//
//	(position, "mainframe developer") → (skill, "COBOL")(era, "1960-1980")
//
// It is the building block the ontology compiler emits for `map` rules.
type PairMap struct {
	MapName string
	Attr    string
	Match   message.Value // pair value that triggers the mapping
	Derived []message.Pair
}

// Name implements MappingFunc.
func (p PairMap) Name() string { return p.MapName }

// Triggers implements MappingFunc.
func (p PairMap) Triggers() []string { return []string{p.Attr} }

// Apply implements MappingFunc.
func (p PairMap) Apply(e message.Event) []message.Pair {
	for _, pair := range e.Pairs() {
		if pair.Attr == p.Attr && pair.Val.Equal(p.Match) {
			out := make([]message.Pair, len(p.Derived))
			copy(out, p.Derived)
			return out
		}
	}
	return nil
}
