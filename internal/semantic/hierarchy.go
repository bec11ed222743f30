package semantic

import (
	"fmt"
	"sort"
)

// Hierarchy is the concept hierarchy of the paper's second approach
// (§3.1): a directed acyclic graph of specialization/generalization
// ("is-a") relations over terms. More general terms are higher up;
// edges point from child (specialized) to parent (generalized).
//
// The matching rules it supports are normative in the paper:
//
//	(R1) events that contain more specialized concepts match
//	     subscriptions that contain more generalized terms;
//	(R2) events that contain more generalized terms than those used in
//	     the subscriptions do NOT match.
//
// The Stage realizes R1 by adding generalized variants to events and R2
// by never specializing them.
type Hierarchy struct {
	parents  map[string][]string // child → parents (generalizations)
	children map[string][]string // parent → children (specializations)
	nodes    map[string]bool
}

// NewHierarchy returns an empty concept hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		parents:  make(map[string][]string),
		children: make(map[string][]string),
		nodes:    make(map[string]bool),
	}
}

// AddConcept registers a term without relating it to anything.
func (h *Hierarchy) AddConcept(term string) error {
	if term == "" {
		return fmt.Errorf("semantic: empty concept name")
	}
	h.nodes[term] = true
	return nil
}

// AddIsA declares child to be a specialization of parent
// ("sedan is-a car"). Both concepts are registered implicitly. Edges
// that would create a cycle are rejected: a cyclic "hierarchy" would
// equate generalization and specialization and break rule R2.
func (h *Hierarchy) AddIsA(child, parent string) error {
	if child == "" || parent == "" {
		return fmt.Errorf("semantic: is-a needs non-empty concepts")
	}
	if child == parent {
		return fmt.Errorf("semantic: %q cannot specialize itself", child)
	}
	if h.reachable(parent, child) {
		return fmt.Errorf("semantic: is-a edge %q → %q would create a cycle", child, parent)
	}
	for _, p := range h.parents[child] {
		if p == parent {
			return nil // idempotent
		}
	}
	h.nodes[child] = true
	h.nodes[parent] = true
	h.parents[child] = append(h.parents[child], parent)
	h.children[parent] = append(h.children[parent], child)
	return nil
}

// reachable reports whether to is reachable from from following parent
// edges (i.e. whether `to` generalizes `from` transitively or equals it).
func (h *Hierarchy) reachable(from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range h.parents[n] {
			if p == to {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// Has reports whether the term is a known concept.
func (h *Hierarchy) Has(term string) bool { return h.nodes[term] }

// Len reports the number of known concepts.
func (h *Hierarchy) Len() int { return len(h.nodes) }

// Parents returns the direct generalizations of term, sorted.
func (h *Hierarchy) Parents(term string) []string {
	out := append([]string{}, h.parents[term]...)
	sort.Strings(out)
	return out
}

// Children returns the direct specializations of term, sorted.
func (h *Hierarchy) Children(term string) []string {
	out := append([]string{}, h.children[term]...)
	sort.Strings(out)
	return out
}

// Ancestors returns every transitive generalization of term (excluding
// term itself), sorted. maxLevels bounds how far up to walk; 0 means
// unlimited. This is the loss-tolerance knob of paper §3.2: "one may
// restrict the level of a match generality".
func (h *Hierarchy) Ancestors(term string, maxLevels int) []string {
	if !h.nodes[term] {
		return nil
	}
	seen := make(map[string]bool)
	frontier := []string{term}
	for level := 0; len(frontier) > 0 && (maxLevels == 0 || level < maxLevels); level++ {
		var next []string
		for _, n := range frontier {
			for _, p := range h.parents[n] {
				if !seen[p] && p != term {
					seen[p] = true
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Descendants returns every transitive specialization of term (excluding
// term itself), sorted.
func (h *Hierarchy) Descendants(term string) []string {
	if !h.nodes[term] {
		return nil
	}
	seen := make(map[string]bool)
	stack := []string{term}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range h.children[n] {
			if !seen[c] && c != term {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// IsA reports whether specific is term general or a transitive
// specialization of it ("sedan IsA vehicle").
func (h *Hierarchy) IsA(specific, general string) bool {
	if specific == general {
		return h.nodes[specific]
	}
	return h.reachable(specific, general)
}

// Depth returns the length of the longest parent chain above term
// (a root concept has depth 0), and false for unknown terms.
func (h *Hierarchy) Depth(term string) (int, bool) {
	if !h.nodes[term] {
		return 0, false
	}
	memo := make(map[string]int)
	var walk func(string) int
	walk = func(n string) int {
		if d, ok := memo[n]; ok {
			return d
		}
		best := 0
		for _, p := range h.parents[n] {
			if d := walk(p) + 1; d > best {
				best = d
			}
		}
		memo[n] = best
		return best
	}
	return walk(term), true
}

// Concepts returns every known concept, sorted (full enumeration for
// the ontology diff in internal/knowledge).
func (h *Hierarchy) Concepts() []string {
	out := make([]string, 0, len(h.nodes))
	for n := range h.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy sharing no mutable state with the original
// (copy-on-write support for the runtime knowledge base).
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{
		parents:  make(map[string][]string, len(h.parents)),
		children: make(map[string][]string, len(h.children)),
		nodes:    make(map[string]bool, len(h.nodes)),
	}
	for n, ps := range h.parents {
		c.parents[n] = append([]string(nil), ps...)
	}
	for n, cs := range h.children {
		c.children[n] = append([]string(nil), cs...)
	}
	for n := range h.nodes {
		c.nodes[n] = true
	}
	return c
}

// Roots returns concepts with no parents, sorted.
func (h *Hierarchy) Roots() []string {
	var out []string
	for n := range h.nodes {
		if len(h.parents[n]) == 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Merge copies every node and edge of o into h (multi-domain operation,
// paper §3.2). Cycles introduced by the union are rejected.
func (h *Hierarchy) Merge(o *Hierarchy) error {
	nodes := make([]string, 0, len(o.nodes))
	for n := range o.nodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if err := h.AddConcept(n); err != nil {
			return err
		}
	}
	for _, child := range nodes {
		ps := append([]string{}, o.parents[child]...)
		sort.Strings(ps)
		for _, p := range ps {
			if err := h.AddIsA(child, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// String summarizes the hierarchy for diagnostics.
func (h *Hierarchy) String() string {
	edges := 0
	for _, ps := range h.parents {
		edges += len(ps)
	}
	return fmt.Sprintf("hierarchy{concepts: %d, is-a edges: %d}", len(h.nodes), edges)
}
