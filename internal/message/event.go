package message

import (
	"fmt"
	"sort"
	"strings"
)

// Pair is one attribute/value element of a publication, e.g.
// ("school", Toronto).
type Pair struct {
	Attr string
	Val  Value
}

// Event is a publication: an ordered multiset of attribute/value pairs.
// The paper's examples allow several pairs with related attributes (job1,
// job2, …) and the semantic stage adds further pairs for the same
// attributes, so Event deliberately permits duplicate attributes.
//
// Events are value types with copy-on-write behaviour provided by the
// explicit Clone method; mutating methods operate in place.
type Event struct {
	pairs []Pair
}

// NewEvent builds an event from pairs in order.
func NewEvent(pairs ...Pair) Event {
	e := Event{pairs: make([]Pair, len(pairs))}
	copy(e.pairs, pairs)
	return e
}

// E is shorthand used heavily by tests and examples:
// E("school", String("Toronto"), "degree", String("PhD")).
// It panics on an odd argument count or a non-string attribute, which is
// acceptable for its literal-construction role.
func E(kv ...any) Event {
	if len(kv)%2 != 0 {
		panic("message.E: odd number of arguments")
	}
	e := Event{pairs: make([]Pair, 0, len(kv)/2)}
	for i := 0; i < len(kv); i += 2 {
		attr, ok := kv[i].(string)
		if !ok {
			panic(fmt.Sprintf("message.E: attribute %d is %T, want string", i/2, kv[i]))
		}
		var v Value
		switch x := kv[i+1].(type) {
		case Value:
			v = x
		case string:
			v = String(x)
		case int:
			v = Int(int64(x))
		case int64:
			v = Int(x)
		case float64:
			v = Float(x)
		case bool:
			v = Bool(x)
		default:
			panic(fmt.Sprintf("message.E: unsupported value type %T", kv[i+1]))
		}
		e.pairs = append(e.pairs, Pair{Attr: attr, Val: v})
	}
	return e
}

// Len reports the number of attribute/value pairs.
func (e Event) Len() int { return len(e.pairs) }

// Pairs returns the underlying pairs. The slice must not be mutated by
// callers; use Clone for a private copy.
func (e Event) Pairs() []Pair { return e.pairs }

// Pair returns the i-th pair.
func (e Event) Pair(i int) Pair { return e.pairs[i] }

// Has reports whether the event carries attribute attr.
func (e Event) Has(attr string) bool {
	for _, p := range e.pairs {
		if p.Attr == attr {
			return true
		}
	}
	return false
}

// Get returns the first value of attribute attr and whether it is present.
func (e Event) Get(attr string) (Value, bool) {
	for _, p := range e.pairs {
		if p.Attr == attr {
			return p.Val, true
		}
	}
	return None(), false
}

// GetAll returns every value carried for attribute attr, in order.
func (e Event) GetAll(attr string) []Value {
	var vs []Value
	for _, p := range e.pairs {
		if p.Attr == attr {
			vs = append(vs, p.Val)
		}
	}
	return vs
}

// Add appends a pair in place and returns the event for chaining.
func (e *Event) Add(attr string, v Value) *Event {
	e.pairs = append(e.pairs, Pair{Attr: attr, Val: v})
	return e
}

// AddPair appends an existing pair in place.
func (e *Event) AddPair(p Pair) { e.pairs = append(e.pairs, p) }

// AddUnique appends the pair only when an equal (attr, value) pair is not
// already present. It reports whether the pair was added. The semantic
// stage uses it to keep the saturated event duplicate-free.
func (e *Event) AddUnique(attr string, v Value) bool {
	for _, p := range e.pairs {
		if p.Attr == attr && p.Val.Equal(v) {
			return false
		}
	}
	e.pairs = append(e.pairs, Pair{Attr: attr, Val: v})
	return true
}

// Clone returns a deep, independent copy of the event.
func (e Event) Clone() Event {
	c := Event{pairs: make([]Pair, len(e.pairs))}
	copy(c.pairs, e.pairs)
	return c
}

// Attrs returns the distinct attribute names of the event, sorted.
func (e Event) Attrs() []string {
	seen := make(map[string]struct{}, len(e.pairs))
	var out []string
	for _, p := range e.pairs {
		if _, dup := seen[p.Attr]; !dup {
			seen[p.Attr] = struct{}{}
			out = append(out, p.Attr)
		}
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two events carry the same multiset of pairs,
// irrespective of order.
func (e Event) Equal(o Event) bool {
	return e.Signature() == o.Signature()
}

// Signature returns a canonical, order-insensitive key identifying the
// event's pair multiset (Equal compares by it; the simulation compares
// brokers' saturated events by it).
func (e Event) Signature() string {
	keys := make([]string, len(e.pairs))
	for i, p := range e.pairs {
		keys[i] = p.Attr + "\x1f" + p.Val.Canonical()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1e")
}

// String renders the event in the paper's surface syntax:
// (school, Toronto)(degree, PhD).
func (e Event) String() string {
	var sb strings.Builder
	for _, p := range e.pairs {
		fmt.Fprintf(&sb, "(%s, %s)", p.Attr, p.Val)
	}
	return sb.String()
}

// Validate reports whether every pair has a non-empty attribute and a
// non-None value.
func (e Event) Validate() error {
	if len(e.pairs) == 0 {
		return fmt.Errorf("message: event has no pairs")
	}
	for i, p := range e.pairs {
		if p.Attr == "" {
			return fmt.Errorf("message: event pair %d has empty attribute", i)
		}
		if p.Val.IsNone() {
			return fmt.Errorf("message: event pair %d (%s) has no value", i, p.Attr)
		}
	}
	return nil
}
