// Package semantic implements the semantic stage of S-ToPSS (paper §3):
// synonym canonicalization, concept-hierarchy expansion and mapping
// functions, composed into the Figure 1 pipeline by Stage.
//
// Each mechanism is usable independently, exactly as the paper requires
// ("Each of the approaches can be used independently and for some
// applications that may be desirable. It is also possible to use all
// three approaches together."), and every lookup is hash-based, which is
// the paper's central performance claim.
//
// Stage composes them into one saturation per publication: the event
// is rewritten to root terms and then grows in place, round by round,
// by hierarchy generalizations and mapping outputs until a round adds
// nothing or MaxRounds runs out. Every derived pair is treated as a
// fact about the one publication, so the matcher matches the single
// saturated event (DESIGN.md §4 records the decision and how it
// differs from matching each derived event separately).
package semantic

import (
	"fmt"
	"sort"
	"strings"

	"stopss/internal/message"
)

// Synonyms maps semantically equivalent terms to a canonical "root" term
// (paper §3.1, first approach). It applies both to attribute names
// ("school" → "university") and to string values. Lookup is a single
// hash probe.
type Synonyms struct {
	root   map[string]string   // term → root (roots map to themselves)
	groups map[string][]string // root → members (excluding the root)
}

// NewSynonyms returns an empty synonym table.
func NewSynonyms() *Synonyms {
	return &Synonyms{
		root:   make(map[string]string),
		groups: make(map[string][]string),
	}
}

// AddGroup declares root as the canonical term for every synonym given.
// The root itself is also registered so Canonical(root) = root. A term
// may belong to only one group; conflicting registrations are an error,
// because silently re-rooting a term would change the meaning of
// already-indexed subscriptions.
func (s *Synonyms) AddGroup(root string, synonyms ...string) error {
	if root == "" {
		return fmt.Errorf("semantic: synonym group needs a non-empty root")
	}
	if existing, ok := s.root[root]; ok && existing != root {
		return fmt.Errorf("semantic: %q is already a synonym of %q and cannot become a root", root, existing)
	}
	s.root[root] = root
	// Ontology terms join the global intern table (message.Sym): the
	// matcher compares interned attribute symbols on its hot path, and a
	// loaded ontology's terms are exactly the strings worth sharing.
	message.InternSym(root)
	for _, term := range synonyms {
		if term == "" {
			return fmt.Errorf("semantic: empty synonym in group %q", root)
		}
		if term == root {
			continue
		}
		message.InternSym(term)
		if existing, ok := s.root[term]; ok && existing != root {
			return fmt.Errorf("semantic: %q already maps to root %q, cannot remap to %q", term, existing, root)
		}
		if _, known := s.root[term]; !known {
			s.groups[root] = append(s.groups[root], term)
		}
		s.root[term] = root
	}
	return nil
}

// Canonical returns the root term for t, or t itself when it is unknown
// to the table. The second result reports whether a rewrite occurred.
func (s *Synonyms) Canonical(t string) (string, bool) {
	if r, ok := s.root[t]; ok {
		return r, r != t
	}
	return t, false
}

// IsRoot reports whether t is a registered root term.
func (s *Synonyms) IsRoot(t string) bool { return s.root[t] == t }

// Known reports whether t is registered at all (as a root or a member).
// A known term's canonical form never changes afterwards: AddGroup
// rejects remapping, which is what makes incremental re-indexing after
// a knowledge delta sound (only previously-unknown terms can acquire a
// new canonical form).
func (s *Synonyms) Known(t string) bool {
	_, ok := s.root[t]
	return ok
}

// RootTerms returns every registered root term, sorted. Together with
// GroupOf it allows full enumeration of the table (the ontology diff in
// internal/knowledge needs this).
func (s *Synonyms) RootTerms() []string {
	out := make([]string, 0, len(s.root))
	for term, r := range s.root {
		if term == r {
			out = append(out, term)
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy. The copy shares no mutable state with the
// original, so one can evolve while snapshots of the other stay frozen
// (the copy-on-write discipline of the runtime knowledge base).
func (s *Synonyms) Clone() *Synonyms {
	c := &Synonyms{
		root:   make(map[string]string, len(s.root)),
		groups: make(map[string][]string, len(s.groups)),
	}
	for t, r := range s.root {
		c.root[t] = r
	}
	for r, members := range s.groups {
		c.groups[r] = append([]string(nil), members...)
	}
	return c
}

// DiffTerms returns, sorted, every term whose canonical form differs
// between s and o. Terms unknown to both tables canonicalize to
// themselves on each side, so only registered terms need comparing;
// a root term registered on one side only is NOT a difference (its
// canonical form is itself either way). The runtime knowledge base
// diffs the pre- and post-refold tables with this to re-index exactly
// the subscriptions a log reorganization actually touched.
func (s *Synonyms) DiffTerms(o *Synonyms) []string {
	seen := make(map[string]bool, len(s.root)+len(o.root))
	var out []string
	check := func(t string) {
		if seen[t] {
			return
		}
		seen[t] = true
		a, _ := s.Canonical(t)
		b, _ := o.Canonical(t)
		if a != b {
			out = append(out, t)
		}
	}
	for t := range s.root {
		check(t)
	}
	for t := range o.root {
		check(t)
	}
	sort.Strings(out)
	return out
}

// GroupOf returns the full synonym group of t (root first, then members
// in sorted order), or nil when t is unknown.
func (s *Synonyms) GroupOf(t string) []string {
	r, ok := s.root[t]
	if !ok {
		return nil
	}
	members := append([]string{}, s.groups[r]...)
	sort.Strings(members)
	return append([]string{r}, members...)
}

// Len reports the number of registered terms (roots included).
func (s *Synonyms) Len() int { return len(s.root) }

// Groups reports the number of synonym groups.
func (s *Synonyms) Groups() int { return len(s.groups) }

// Merge copies every group of o into s; conflicts are errors. Used by
// the ontology compiler to combine multiple domain ontologies in one
// system (paper §3.2, multi-domain operation).
func (s *Synonyms) Merge(o *Synonyms) error {
	roots := make([]string, 0, len(o.groups))
	for r := range o.groups {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		if err := s.AddGroup(r, o.groups[r]...); err != nil {
			return err
		}
	}
	// Roots without members still need registering.
	for term, r := range o.root {
		if term == r {
			if err := s.AddGroup(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// String summarizes the table for diagnostics.
func (s *Synonyms) String() string {
	return fmt.Sprintf("synonyms{terms: %d, groups: %d}", len(s.root), len(s.groups))
}

// LinearSynonyms is a deliberately naive variant that stores groups in a
// slice and resolves terms by scanning. It exists only for BenchmarkSynonyms
// (the paper's claim that hash structures are "the key aspect of this
// approach in terms of performance"); production code paths always use
// Synonyms.
type LinearSynonyms struct {
	groups [][]string // group[0] is the root
}

// NewLinearSynonyms returns an empty scan-based table.
func NewLinearSynonyms() *LinearSynonyms { return &LinearSynonyms{} }

// AddGroup appends a synonym group with the given root.
func (s *LinearSynonyms) AddGroup(root string, synonyms ...string) {
	s.groups = append(s.groups, append([]string{root}, synonyms...))
}

// Canonical resolves t by scanning every group member.
func (s *LinearSynonyms) Canonical(t string) (string, bool) {
	for _, g := range s.groups {
		for i, term := range g {
			if term == t {
				return g[0], i != 0
			}
		}
	}
	return t, false
}

// canonicalTerm is the stage-internal helper signature shared by both
// implementations.
type canonicalizer interface {
	Canonical(string) (string, bool)
}

var (
	_ canonicalizer = (*Synonyms)(nil)
	_ canonicalizer = (*LinearSynonyms)(nil)
)

// normalizeTerm lower-cases and space-normalizes a term the way the
// ontology loader and the web application do, so that "Graduation Year"
// and "graduation year" meet in the same hash bucket.
func normalizeTerm(t string) string {
	return strings.Join(strings.Fields(strings.ToLower(t)), " ")
}

// NormalizeTerm exposes the shared normal form.
func NormalizeTerm(t string) string { return normalizeTerm(t) }
