package semantic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stopss/internal/message"
)

// Config selects which semantic mechanisms a Stage applies and how far
// they may expand an event. It is the paper's loss-tolerance knob
// (§3.2): "allow the user to inform the system about how much
// information loss the user is willing to tolerate. For example, one may
// only want synonym semantics to be used or one may restrict the level
// of a match generality."
type Config struct {
	// Synonyms enables the attribute-level synonym rewrite (approach 1).
	Synonyms bool
	// Hierarchy enables concept-hierarchy generalization (approach 2).
	Hierarchy bool
	// Mappings enables mapping functions (approach 3).
	Mappings bool

	// SynonymValues extends the synonym rewrite to string values. The
	// paper notes approach 1 "operates only at attribute level and does
	// not consider the semantics at the value level"; this flag is our
	// extension beyond the paper and defaults to off.
	SynonymValues bool

	// MaxGeneralization bounds how many hierarchy levels an event may
	// be generalized upward; 0 means unlimited. Level 1 admits direct
	// parents only, etc.
	MaxGeneralization int

	// MaxRounds bounds the saturation rounds (paper §3.2: the CH and
	// MF stages "can be executed multiple times" because each may
	// enable the other). 0 selects DefaultMaxRounds.
	MaxRounds int
}

// DefaultMaxRounds is the saturation bound used when Config.MaxRounds
// is 0.
const DefaultMaxRounds = 4

// FullConfig enables all three approaches with default bounds.
func FullConfig() Config {
	return Config{Synonyms: true, Hierarchy: true, Mappings: true}
}

// SyntacticConfig disables the whole semantic stage — the paper's
// "syntactic mode" (§4).
func SyntacticConfig() Config { return Config{} }

// Stage is the semantic stage of Figure 1: synonym rewrite first, then a
// fixpoint of concept-hierarchy and mapping-function expansion, feeding
// the matching algorithm one saturated event: the original pairs plus
// every pair the knowledge derives from them (DESIGN.md §4).
//
// A Stage is safe for concurrent use, and — unlike the original
// read-only design — safely mutable at runtime: all state (the three
// knowledge structures plus the configuration) lives behind one
// atomically swapped snapshot. Readers (ProcessEvent,
// ProcessSubscription) load the snapshot once and therefore never
// observe a half-applied knowledge update; Replace, the one writer,
// installs a fresh snapshot under a writer lock. The structures inside
// a snapshot are treated as immutable: knowledge updates clone-and-swap
// (internal/knowledge), they never mutate in place.
type Stage struct {
	wmu  sync.Mutex // serializes writers; readers only load snap
	snap atomic.Pointer[stageSnap]
}

// stageSnap is one immutable view of the stage.
type stageSnap struct {
	syn  *Synonyms
	hier *Hierarchy
	maps *Mappings
	cfg  Config
}

// NewStage builds a stage over the given knowledge structures. Nil
// structures are replaced by empty ones, so a Stage is always safe to
// call.
func NewStage(syn *Synonyms, hier *Hierarchy, maps *Mappings, cfg Config) *Stage {
	if syn == nil {
		syn = NewSynonyms()
	}
	if hier == nil {
		hier = NewHierarchy()
	}
	if maps == nil {
		maps = NewMappings()
	}
	st := &Stage{}
	st.snap.Store(&stageSnap{syn: syn, hier: hier, maps: maps, cfg: cfg})
	return st
}

// load returns the current snapshot (never nil).
func (st *Stage) load() *stageSnap { return st.snap.Load() }

// Synonyms exposes the stage's current synonym table (for inspection and
// stats). Callers must treat it as read-only.
func (st *Stage) Synonyms() *Synonyms { return st.load().syn }

// Hierarchy exposes the stage's current concept hierarchy (read-only).
func (st *Stage) Hierarchy() *Hierarchy { return st.load().hier }

// Mappings exposes the stage's current mapping-function registry
// (read-only).
func (st *Stage) Mappings() *Mappings { return st.load().maps }

// Config returns the stage configuration.
func (st *Stage) Config() Config { return st.load().cfg }

// Replace atomically installs new knowledge structures, keeping the
// current configuration. Nil arguments keep the corresponding current
// structure. The knowledge base (internal/knowledge) uses this to apply
// delta updates copy-on-write: in-flight ProcessEvent calls keep the
// snapshot they loaded and never see a half-applied delta.
func (st *Stage) Replace(syn *Synonyms, hier *Hierarchy, maps *Mappings) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	cur := st.load()
	if syn == nil {
		syn = cur.syn
	}
	if hier == nil {
		hier = cur.hier
	}
	if maps == nil {
		maps = cur.maps
	}
	st.snap.Store(&stageSnap{syn: syn, hier: hier, maps: maps, cfg: cur.cfg})
}

// Result reports what the semantic stage did to one publication.
type Result struct {
	// Event is the saturated publication entering the matching
	// algorithm: the (possibly synonym-rewritten) original pairs first,
	// then every pair the hierarchy and the mapping functions derived,
	// each once. Every derived pair is a fact about the one publication
	// (DESIGN.md §4), so matching this one event realizes Figure 1.
	Event message.Event

	SynonymRewrites int  // attribute/value rewrites applied
	HierarchyPairs  int  // generalized pairs added
	MappingPairs    int  // pairs derived by mapping functions
	MappingCalls    int  // mapping function invocations
	Rounds          int  // saturation rounds that added pairs
	Truncated       bool // MaxRounds ran out while pairs were still being added
}

// Origin names the rule that put a pair into the saturated event:
// OriginOriginal, OriginSynonym, OriginHierarchy, or "mapping:<name>"
// (MappingOrigin) for a pair a mapping function derived.
type Origin string

// The fixed origins.
const (
	OriginOriginal  Origin = "original"
	OriginSynonym   Origin = "synonym"
	OriginHierarchy Origin = "hierarchy"
)

// MappingOrigin is the origin of a pair derived by the named mapping
// function.
func MappingOrigin(name string) Origin { return Origin("mapping:" + name) }

// ProcessEvent runs the full Figure 1 pipeline on a publication.
func (st *Stage) ProcessEvent(e message.Event) Result {
	return st.load().saturate(e, nil)
}

// ExplainEvent is ProcessEvent that also reports, for each pair of the
// saturated event (index-aligned with Result.Event.Pairs()), the rule
// that added it. It is the diagnostic path behind core.Engine.Explain.
func (st *Stage) ExplainEvent(e message.Event) (Result, []Origin) {
	var origins []Origin
	res := st.load().saturate(e, &origins)
	return res, origins
}

// saturate rewrites the publication to root terms and then grows it in
// place to a fixpoint. Each round takes the pairs the previous round
// added (the root's pairs in the first), adds their hierarchy
// generalizations, then applies every mapping function triggered by an
// attribute among those pairs or the generalizations to the whole
// event. Mapping outputs are generalized in the next round; the
// hierarchy's own additions are not: Ancestors is transitive, so one
// pass per pair is complete, and another would climb past
// MaxGeneralization (the loss knob). The loop stops after a round that
// adds no mapping output, or when MaxRounds runs out (Truncated).
// origins, when non-nil, receives each pair's Origin.
func (sn *stageSnap) saturate(e message.Event, origins *[]Origin) Result {
	var res Result
	res.Event, res.SynonymRewrites = sn.rewrite(e, origins)
	if !sn.cfg.Hierarchy && !sn.cfg.Mappings {
		return res
	}
	maxRounds := sn.cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	ev := &res.Event
	add := func(p message.Pair, o Origin) bool {
		if !ev.AddUnique(p.Attr, p.Val) {
			return false
		}
		if origins != nil {
			*origins = append(*origins, o)
		}
		return true
	}
	for start := 0; start < ev.Len(); res.Rounds++ {
		if res.Rounds == maxRounds {
			res.Truncated = true
			break
		}
		end := ev.Len()
		if sn.cfg.Hierarchy {
			for i := start; i < end; i++ {
				res.HierarchyPairs += sn.generalize(ev.Pair(i), add)
			}
		}
		mid := ev.Len()
		if sn.cfg.Mappings {
			for _, f := range sn.maps.applicable(ev.Pairs()[start:mid]) {
				res.MappingCalls++
				var o Origin
				if origins != nil {
					o = MappingOrigin(f.Name())
				}
				for _, p := range f.Apply(*ev) {
					if add(p, o) {
						res.MappingPairs++
					}
				}
			}
		}
		if ev.Len() == end {
			break // nothing added: the event is saturated
		}
		start = mid
	}
	return res
}

// rewrite returns a private copy of the event with attributes (and
// optionally string values) mapped to their synonym roots, and the
// rewrite count.
func (sn *stageSnap) rewrite(e message.Event, origins *[]Origin) (message.Event, int) {
	out := e.Clone()
	if origins != nil {
		*origins = make([]Origin, out.Len())
		for i := range *origins {
			(*origins)[i] = OriginOriginal
		}
	}
	if !sn.cfg.Synonyms {
		return out, 0
	}
	rewrites := 0
	pairs := out.Pairs() // out is private: rewrite in place
	for i := range pairs {
		n := rewrites
		if attr, changed := sn.syn.Canonical(pairs[i].Attr); changed {
			pairs[i].Attr = attr
			rewrites++
		}
		if sn.cfg.SynonymValues && pairs[i].Val.Kind() == message.KindString {
			if s, changed := sn.syn.Canonical(pairs[i].Val.Str()); changed {
				pairs[i].Val = message.String(s)
				rewrites++
			}
		}
		if origins != nil && rewrites > n {
			(*origins)[i] = OriginSynonym
		}
	}
	return out, rewrites
}

// generalize adds, through add, every generalization of one pair
// within MaxGeneralization levels: ancestor attributes with the pair's
// value, the pair's attribute with ancestor values, and each ancestor
// attribute with each ancestor value. It returns the number added. Rule
// R2 holds because nothing is ever specialized.
func (sn *stageSnap) generalize(p message.Pair, add func(message.Pair, Origin) bool) int {
	levels := sn.cfg.MaxGeneralization
	attrs := sn.hier.Ancestors(p.Attr, levels)
	var vals []string
	if p.Val.Kind() == message.KindString {
		vals = sn.hier.Ancestors(p.Val.Str(), levels)
	}
	added := 0
	put := func(attr string, v message.Value) {
		if add(message.Pair{Attr: attr, Val: v}, OriginHierarchy) {
			added++
		}
	}
	for _, a := range attrs {
		put(a, p.Val)
	}
	for _, v := range vals {
		val := message.String(v)
		put(p.Attr, val)
		for _, a := range attrs {
			put(a, val)
		}
	}
	return added
}

// ProcessSubscription applies the subscription side of Figure 1: only
// the synonym stage runs, rewriting attributes (and optionally string
// values) to root terms. Hierarchy and mapping stages never touch
// subscriptions — generalizing a subscription would violate rule R2.
// The second result counts rewrites.
func (st *Stage) ProcessSubscription(s message.Subscription) (message.Subscription, int) {
	sn := st.load()
	if !sn.cfg.Synonyms {
		return s.Clone(), 0
	}
	out := s.Clone()
	rewrites := 0
	for i, p := range out.Preds {
		attr, changed := sn.syn.Canonical(p.Attr)
		if changed {
			rewrites++
			out.Preds[i].Attr = attr
		}
		if sn.cfg.SynonymValues && p.Val.Kind() == message.KindString {
			if v, ch := sn.syn.Canonical(p.Val.Str()); ch {
				rewrites++
				out.Preds[i].Val = message.String(v)
			}
		}
	}
	return out, rewrites
}

// String summarizes the stage for diagnostics.
func (st *Stage) String() string {
	sn := st.load()
	return fmt.Sprintf("stage{syn: %d terms, hier: %d concepts, maps: %d funcs, cfg: %+v}",
		sn.syn.Len(), sn.hier.Len(), sn.maps.Len(), sn.cfg)
}
