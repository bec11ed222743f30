// Package core assembles the S-ToPSS engine of Figure 1: a semantic
// stage (internal/semantic) in front of a content-based matching
// algorithm (internal/matching).
//
// The engine is the unit the demonstration runs in "semantic" or
// "syntactic" mode (paper §4): in syntactic mode the semantic stage is
// bypassed entirely and the engine behaves like the underlying ToPSS
// matcher; in semantic mode subscriptions are synonym-canonicalized on
// entry and every publication is saturated into one event, carrying its
// original pairs and every pair the knowledge derives from them, which
// the matcher matches once (DESIGN.md §4).
//
// Engine is safe for concurrent use: matching state is guarded by a
// read-write mutex (publications of distinct events still serialize on
// the matcher, since a Match writes its epoch stamps into the shared
// predicate entries and reuses per-matcher scratch buffers).
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"stopss/internal/knowledge"
	"stopss/internal/matching"
	"stopss/internal/message"
	"stopss/internal/semantic"
)

// Mode selects semantic or syntactic operation (paper §4: "the
// application can run in two different modes: semantic or syntactic").
type Mode int

// The two demonstration modes.
const (
	Syntactic Mode = iota
	Semantic
)

// String returns "semantic" or "syntactic".
func (m Mode) String() string {
	if m == Semantic {
		return "semantic"
	}
	return "syntactic"
}

// ParseMode converts the surface form to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "semantic":
		return Semantic, nil
	case "syntactic":
		return Syntactic, nil
	default:
		return Syntactic, fmt.Errorf("core: unknown mode %q (want semantic or syntactic)", s)
	}
}

// Stats aggregates engine activity since construction.
type Stats struct {
	Subscriptions   int           // currently indexed
	SubsAdded       uint64        // total ever added
	SubsRemoved     uint64        // total ever removed
	Events          uint64        // publications processed
	DerivedEvents   uint64        // saturated events matched: 1 per semantic-mode publication
	Matches         uint64        // subscription matches delivered
	SynonymRewrites uint64        // attribute/value rewrites (events + subscriptions)
	HierarchyPairs  uint64        // generalized pairs added
	MappingPairs    uint64        // pairs derived by mapping functions
	MappingCalls    uint64        // mapping function invocations
	Truncated       uint64        // publications whose saturation ran out of MaxRounds
	SemanticTime    time.Duration // cumulative time in the semantic stage
	MatchTime       time.Duration // cumulative time in the matching algorithm

	// Knowledge-base observability (zero when no base is bound): the
	// applied-delta count and digest identify this engine's KB version,
	// so operators can spot federation knowledge skew at a glance.
	KBDeltas    uint64 // deltas in the applied log (incl. rejected)
	KBRejected  uint64 // deltas rejected deterministically
	KBReindexed uint64 // subscriptions re-indexed by knowledge updates
	// KBFullReindexes counts knowledge re-indexes that fell back to the
	// full subscription set (affected-term set past KBFullReindexTerms,
	// or an explicit full request). With bounded multi-origin
	// convergence this should stay 0 in steady state — the sim asserts
	// exactly that — so a non-zero rate is a cost regression signal.
	KBFullReindexes uint64
	KBVersion       string // order-sensitive digest of the applied log

	// Query-optimizer observability (DESIGN.md §12). Plan-cache counters
	// come from the matcher (compiled subscription plans shared across
	// duplicates); InternedTerms is the size of the process-wide
	// string-intern table.
	PlanCacheHits   uint64
	PlanCacheMisses uint64
	PlansCached     int
	InternedTerms   int

	benchCompatStats // deprecated, always-0 counters (benchcompat.go)
}

// PubSub is the engine surface the broker (and everything above it)
// programs against. *Engine is the one implementation; keeping the
// broker on an interface lets a caller wrap the engine — the benchmark
// harness times every call through a decorator — without touching the
// dispatch layer.
type PubSub interface {
	Subscribe(s message.Subscription) error
	Unsubscribe(id message.SubID) bool
	Subscription(id message.SubID) (message.Subscription, bool)
	Publish(ev message.Event) (MatchResult, error)
	Explain(id message.SubID, ev message.Event) (Explanation, error)
	Mode() Mode
	SetMode(m Mode) error
	Stats() Stats
	Size() int
	Stage() *semantic.Stage
	MatcherName() string

	// ApplyKnowledge folds one knowledge delta into the bound base,
	// swaps the semantic stage to the fresh snapshot, and re-indexes
	// affected subscriptions — all excluded against in-flight
	// publications, like SetMode. Errors when no base is bound.
	ApplyKnowledge(d knowledge.Delta) (KnowledgeReport, error)
	// Knowledge exposes the bound knowledge base (nil when none).
	Knowledge() *knowledge.Base
}

// Engine is the S-ToPSS box of Figure 1.
type Engine struct {
	mu      sync.RWMutex
	stage   *semantic.Stage
	matcher matching.Matcher
	mode    Mode
	// originals remembers the subscription as submitted, so that mode
	// switches can re-canonicalize and notifications can echo the
	// user's own terminology.
	originals map[message.SubID]message.Subscription
	stats     Stats
	kb        *knowledge.Base // optional; set with WithKnowledge
}

// Option configures an Engine.
type Option func(*Engine)

// WithMatcher selects the underlying matching algorithm (default:
// counting).
func WithMatcher(m matching.Matcher) Option {
	return func(e *Engine) { e.matcher = m }
}

// WithMode selects the initial mode (default: Semantic).
func WithMode(m Mode) Option {
	return func(e *Engine) { e.mode = m }
}

// WithKnowledge binds a runtime knowledge base. The engine's stage must
// have been built over the base's structures (knowledge.Base.Stage does
// that), so Apply outcomes swap in coherently.
func WithKnowledge(b *knowledge.Base) Option {
	return func(e *Engine) { e.kb = b }
}

// NewEngine builds an engine over the given semantic stage. A nil stage
// yields an engine with an empty knowledge base (still valid: it simply
// never rewrites or expands anything).
func NewEngine(stage *semantic.Stage, opts ...Option) *Engine {
	if stage == nil {
		stage = semantic.NewStage(nil, nil, nil, semantic.FullConfig())
	}
	e := &Engine{
		stage:     stage,
		matcher:   matching.NewCounting(),
		mode:      Semantic,
		originals: make(map[message.SubID]message.Subscription),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Stage exposes the semantic stage (e.g. for the ontology loader).
func (e *Engine) Stage() *semantic.Stage { return e.stage }

// MatcherName reports the underlying algorithm.
func (e *Engine) MatcherName() string { return e.matcher.Name() }

// Mode reports the current mode.
func (e *Engine) Mode() Mode {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.mode
}

// SetMode switches between semantic and syntactic operation. Because
// subscriptions are canonicalized when indexed, a switch re-indexes every
// stored subscription under the new mode's rewrite.
func (e *Engine) SetMode(m Mode) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m == e.mode {
		return nil
	}
	old := e.mode
	e.mode = m // indexedForm derives the staged forms under the new mode
	// Re-index all subscriptions from their original forms.
	ids := make([]message.SubID, 0, len(e.originals))
	for id := range e.originals {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if err := e.reindexIDsLocked(ids); err != nil {
		// Staged validation failed before the matcher was touched:
		// revert the mode so engine and matcher stay consistent.
		e.mode = old
		return err
	}
	return nil
}

// reindexIDsLocked re-derives, re-compiles and re-installs the indexed
// forms of the given subscriptions under the current mode and stage.
// Every new form is compiled (which validates it) BEFORE the first
// removal — validation is the only content-dependent failure of the
// compile-and-add path — so a failed re-index leaves the matcher exactly
// as it was, consistent with e.originals. After a successful re-index
// the matcher re-estimates plan selectivity: the indexed population just
// changed, so compile-time posting counts have gone stale. Callers hold
// e.mu.
func (e *Engine) reindexIDsLocked(ids []message.SubID) error {
	plans := make([]*matching.Plan, len(ids))
	for i, id := range ids {
		p, err := e.matcher.Compile(e.indexedForm(e.originals[id]))
		if err != nil {
			return fmt.Errorf("core: re-indexing subscription %d: %w", id, err)
		}
		plans[i] = p
	}
	for _, id := range ids {
		if !e.matcher.Remove(id) {
			return fmt.Errorf("core: subscription %d lost during re-index", id)
		}
	}
	var firstErr error
	for i, id := range ids {
		// Add cannot fail here (the plan compiled and its ID was just
		// removed), but if it ever does, keep re-inserting the rest so
		// the matcher misses at most the one refused subscription, and
		// report it instead of dropping entries silently.
		if err := e.matcher.Add(id, plans[i]); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: re-indexing subscription %d: %w", id, err)
		}
	}
	if len(ids) > 0 {
		e.matcher.Reestimate()
	}
	return firstErr
}

// indexedForm computes the form of a subscription as stored in the
// matcher under the current mode. Callers hold e.mu.
func (e *Engine) indexedForm(s message.Subscription) message.Subscription {
	if e.mode != Semantic {
		return s.Clone()
	}
	out, rewrites := e.stage.ProcessSubscription(s)
	e.stats.SynonymRewrites += uint64(rewrites)
	return out
}

// Subscribe validates, canonicalizes and indexes a subscription.
func (e *Engine) Subscribe(s message.Subscription) error {
	if err := s.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.originals[s.ID]; dup {
		return fmt.Errorf("core: subscription %d already exists", s.ID)
	}
	p, err := e.matcher.Compile(e.indexedForm(s))
	if err != nil {
		return err
	}
	if err := e.matcher.Add(s.ID, p); err != nil {
		return err
	}
	e.originals[s.ID] = s.Clone()
	e.stats.SubsAdded++
	return nil
}

// Unsubscribe removes a subscription, reporting whether it existed.
func (e *Engine) Unsubscribe(id message.SubID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.originals[id]; !ok {
		return false
	}
	delete(e.originals, id)
	e.matcher.Remove(id)
	e.stats.SubsRemoved++
	return true
}

// Subscription returns the original (pre-canonicalization) form of a
// stored subscription.
func (e *Engine) Subscription(id message.SubID) (message.Subscription, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, ok := e.originals[id]
	if !ok {
		return message.Subscription{}, false
	}
	return s.Clone(), true
}

// MatchResult reports the outcome of one publication.
type MatchResult struct {
	// Matches holds the IDs of all satisfied subscriptions, ascending.
	Matches []message.SubID
	// Expansion is the semantic stage's report; its Event is the
	// saturated event that was matched (the zero Event in syntactic
	// mode, where the publication was matched as given).
	Expansion semantic.Result
	// SemanticTime and MatchTime split the publication's latency
	// between the two pipeline halves (BenchmarkPipeline).
	SemanticTime time.Duration
	MatchTime    time.Duration
}

// Publish runs a publication through the pipeline and returns every
// matching subscription. In semantic mode the stage saturates the event
// once per publication, under the lock that also excludes knowledge
// updates, so the saturation always reflects the current stage, and the
// matcher matches the saturated event once.
func (e *Engine) Publish(ev message.Event) (MatchResult, error) {
	if err := ev.Validate(); err != nil {
		return MatchResult{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	var res MatchResult
	e.stats.Events++

	if e.mode == Semantic {
		t0 := time.Now()
		res.Expansion = e.stage.ProcessEvent(ev)
		res.SemanticTime = time.Since(t0)
		e.stats.SemanticTime += res.SemanticTime
		e.stats.DerivedEvents++
		e.stats.SynonymRewrites += uint64(res.Expansion.SynonymRewrites)
		e.stats.HierarchyPairs += uint64(res.Expansion.HierarchyPairs)
		e.stats.MappingPairs += uint64(res.Expansion.MappingPairs)
		e.stats.MappingCalls += uint64(res.Expansion.MappingCalls)
		if res.Expansion.Truncated {
			e.stats.Truncated++
		}
		ev = res.Expansion.Event
	}

	t1 := time.Now()
	res.Matches = e.matcher.Match(ev, nil)
	res.MatchTime = time.Since(t1)
	e.stats.MatchTime += res.MatchTime
	e.stats.Matches += uint64(len(res.Matches))
	return res, nil
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	s := e.stats
	s.Subscriptions = e.matcher.Size()
	ps := e.matcher.PlanStats()
	kb := e.kb
	e.mu.RUnlock()
	s.PlanCacheHits = ps.Hits
	s.PlanCacheMisses = ps.Misses
	s.PlansCached = ps.Cached
	s.InternedTerms = message.InternedTerms()
	if kb != nil {
		v := kb.Version()
		s.KBDeltas = uint64(v.Deltas)
		s.KBRejected = uint64(v.Rejected)
		s.KBVersion = v.Digest
	}
	return s
}

// Size reports the number of indexed subscriptions.
func (e *Engine) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.matcher.Size()
}
