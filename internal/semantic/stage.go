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

	// MaxRounds bounds the CH/MF fixpoint iterations (paper §3.2: the
	// two stages "can be executed multiple times" because each may
	// enable the other). 0 selects DefaultMaxRounds.
	MaxRounds int

	// MaxEvents caps the total number of derived events per
	// publication, guarding against pathological mapping cycles.
	// 0 selects DefaultMaxEvents.
	MaxEvents int
}

// Default fixpoint bounds.
const (
	DefaultMaxRounds = 4
	DefaultMaxEvents = 64
)

// FullConfig enables all three approaches with default bounds.
func FullConfig() Config {
	return Config{Synonyms: true, Hierarchy: true, Mappings: true}
}

// SyntacticConfig disables the whole semantic stage — the paper's
// "syntactic mode" (§4).
func SyntacticConfig() Config { return Config{} }

// Stage is the semantic stage of Figure 1: synonym rewrite first, then a
// fixpoint of concept-hierarchy and mapping-function expansion, feeding
// the matching algorithm a set of events derived from the original one.
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
	// Events are the derived events entering the matching algorithm:
	// Events[0] is always the (possibly synonym-rewritten) root event;
	// further entries come from hierarchy and mapping expansion. Each
	// derived event contains all pairs of its parent, so matching all
	// of them and unioning the results realizes Figure 1.
	Events []message.Event

	SynonymRewrites int  // attribute/value rewrites applied
	HierarchyPairs  int  // generalized pairs added
	MappingPairs    int  // pairs derived by mapping functions
	MappingCalls    int  // mapping function invocations
	Rounds          int  // fixpoint rounds executed
	Deduplicated    int  // derived events dropped as duplicates
	Truncated       bool // expansion hit MaxEvents
}

// ProcessEvent runs the full Figure 1 pipeline on a publication.
func (st *Stage) ProcessEvent(e message.Event) Result {
	return st.load().processEvent(e)
}

func (sn *stageSnap) processEvent(e message.Event) Result {
	var res Result

	root := e.Clone()
	if sn.cfg.Synonyms {
		root, res.SynonymRewrites = sn.rewriteEvent(root)
	}
	res.Events = []message.Event{root}

	if !sn.cfg.Hierarchy && !sn.cfg.Mappings {
		return res
	}

	maxRounds := sn.cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	maxEvents := sn.cfg.MaxEvents
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}

	// derived tracks provenance: events produced by the hierarchy stage
	// do not re-enter it. Ancestors is transitive, so one generalization
	// pass per derivation is complete; re-entering would let repeated
	// rounds climb past the MaxGeneralization bound (the loss knob).
	type derived struct {
		ev     message.Event
		fromCH bool
	}

	seen := map[string]bool{root.Signature(): true}
	frontier := []derived{{ev: root}}

	admit := func(ev message.Event) bool {
		sig := ev.Signature()
		if seen[sig] {
			res.Deduplicated++
			return false
		}
		if len(res.Events) >= maxEvents {
			res.Truncated = true
			return false
		}
		seen[sig] = true
		res.Events = append(res.Events, ev)
		return true
	}

	for round := 0; round < maxRounds && len(frontier) > 0; round++ {
		var next []derived
		for _, d := range frontier {
			if sn.cfg.Hierarchy && !d.fromCH {
				if gen, added := sn.generalize(d.ev); added > 0 {
					res.HierarchyPairs += added
					if admit(gen) {
						next = append(next, derived{ev: gen, fromCH: true})
					}
				}
			}
			if sn.cfg.Mappings {
				for _, f := range sn.maps.Applicable(d.ev) {
					res.MappingCalls++
					pairs := f.Apply(d.ev)
					if len(pairs) == 0 {
						continue
					}
					child := d.ev.Clone()
					added := 0
					for _, p := range pairs {
						if child.AddUnique(p.Attr, p.Val) {
							added++
						}
					}
					if added == 0 {
						continue
					}
					res.MappingPairs += added
					if admit(child) {
						next = append(next, derived{ev: child})
					}
				}
			}
		}
		if len(next) > 0 {
			res.Rounds++
		}
		frontier = next
	}
	return res
}

// rewriteEvent maps attributes (and optionally string values) to their
// synonym roots, returning the rewritten event and the rewrite count.
func (sn *stageSnap) rewriteEvent(e message.Event) (message.Event, int) {
	out := message.Event{}
	rewrites := 0
	for _, p := range e.Pairs() {
		attr, changed := sn.syn.Canonical(p.Attr)
		if changed {
			rewrites++
		}
		val := p.Val
		if sn.cfg.SynonymValues && val.Kind() == message.KindString {
			if s, ch := sn.syn.Canonical(val.Str()); ch {
				val = message.String(s)
				rewrites++
			}
		}
		out.Add(attr, val)
	}
	return out, rewrites
}

// generalize returns a copy of the event augmented with every
// generalized variant of its pairs: for each pair whose attribute is a
// known concept, pairs with ancestor attributes are added; for each
// string value that is a known concept, pairs with ancestor values are
// added. Rule R2 holds because nothing is ever specialized.
func (sn *stageSnap) generalize(e message.Event) (message.Event, int) {
	out := e.Clone()
	added := 0
	levels := sn.cfg.MaxGeneralization
	for _, p := range e.Pairs() {
		for _, anc := range sn.hier.Ancestors(p.Attr, levels) {
			if out.AddUnique(anc, p.Val) {
				added++
			}
		}
		if p.Val.Kind() == message.KindString {
			for _, anc := range sn.hier.Ancestors(p.Val.Str(), levels) {
				if out.AddUnique(p.Attr, message.String(anc)) {
					added++
				}
			}
		}
	}
	return out, added
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
