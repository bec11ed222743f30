// Package matching implements the content-based matching algorithms that
// S-ToPSS builds on. The paper (§3.1) extends "existing matching
// algorithms" and cites two: the counting algorithm of Aguilera et al.
// (PODC 1999) and the clustering/access-predicate algorithm of Fabret et
// al. (SIGMOD 2001). Counting joins both: a shared unique-predicate index
// as in the first, one access predicate per subscription as in the
// second. Beside it sit a matching tree and a naive linear-scan matcher
// that serves as the correctness oracle and scaling baseline.
//
// Since PR 9 the matchers share a query-optimizer front end (plan.go):
// subscriptions compile once into a canonical *Plan — predicates
// deduplicated and ordered cheapest/most-selective first — and plans are
// cached so duplicate subscriptions share one compiled form. All
// matchers must produce exactly the matches of the reference semantics
// message.Subscription.Matches; the property tests in this package
// enforce pairwise agreement on random workloads.
//
// Matchers are not safe for concurrent use; the engine/broker layers
// serialize access (see internal/core, internal/broker).
package matching

import (
	"fmt"
	"sort"

	"stopss/internal/message"
)

// Matcher indexes compiled subscription plans and matches events against
// them. The compile step is shared across implementations (Compile,
// Reestimate and PlanStats are provided by the embedded planner); Add,
// Remove and Match are the algorithm-specific surface.
type Matcher interface {
	// Compile validates the subscription and returns its plan. Plans
	// are cached by the subscription's canonical predicate form, so
	// compiling a duplicate subscription returns the shared plan.
	Compile(sub message.Subscription) (*Plan, error)
	// Add indexes the plan under the given subscription ID. The plan
	// must come from this matcher's Compile. Adding an ID that is
	// already present is an error.
	Add(id message.SubID, p *Plan) error
	// Remove deletes the subscription and reports whether it existed.
	Remove(id message.SubID) bool
	// Match appends the IDs of all subscriptions satisfied by the
	// event to scratch and returns the extended slice. The appended
	// region is sorted ascending. Passing nil scratch allocates.
	Match(e message.Event, scratch []message.SubID) []message.SubID
	// Reestimate re-orders cached plans under current selectivity
	// statistics; engines call it after knowledge re-indexing.
	Reestimate()
	// PlanStats reports plan-cache hit/miss counters and sizes.
	PlanStats() PlanStats
	// Size reports the number of indexed subscriptions.
	Size() int
	// Name identifies the algorithm for reports and benchmarks.
	Name() string
}

// Index is the compile-and-add convenience used by tests, benchmarks and
// single-subscription call sites.
func Index(m Matcher, sub message.Subscription) error {
	p, err := m.Compile(sub)
	if err != nil {
		return err
	}
	return m.Add(sub.ID, p)
}

// New constructs a matcher by algorithm name: "naive", "counting" or
// "tree".
func New(algorithm string) (Matcher, error) {
	switch algorithm {
	case "naive":
		return NewNaive(), nil
	case "counting":
		return NewCounting(), nil
	case "tree":
		return NewTree(), nil
	default:
		return nil, fmt.Errorf("matching: unknown algorithm %q (want naive, counting or tree)", algorithm)
	}
}

// Algorithms lists the available matcher names in a stable order.
func Algorithms() []string { return []string{"naive", "counting", "tree"} }

// Naive is the brute-force matcher: it evaluates every subscription's
// plan against every event. It is the oracle for the indexed matchers
// and the lower baseline of BenchmarkMatcher. Even the oracle benefits
// from the optimizer front end: shared plans and pushdown ordering make
// its full scan an honest lower bound rather than a strawman.
type Naive struct {
	planner
	subs map[message.SubID]*Plan
}

// NewNaive returns an empty naive matcher.
func NewNaive() *Naive {
	return &Naive{planner: newPlanner(), subs: make(map[message.SubID]*Plan)}
}

// Name implements Matcher.
func (m *Naive) Name() string { return "naive" }

// Size implements Matcher.
func (m *Naive) Size() int { return len(m.subs) }

// Add implements Matcher.
func (m *Naive) Add(id message.SubID, p *Plan) error {
	if p == nil {
		return fmt.Errorf("matching: nil plan for subscription %d", id)
	}
	if _, dup := m.subs[id]; dup {
		return fmt.Errorf("matching: subscription %d already indexed", id)
	}
	m.subs[id] = p
	m.retain(p)
	return nil
}

// Remove implements Matcher.
func (m *Naive) Remove(id message.SubID) bool {
	p, ok := m.subs[id]
	if !ok {
		return false
	}
	delete(m.subs, id)
	m.release(p)
	return true
}

// Match implements Matcher.
func (m *Naive) Match(e message.Event, scratch []message.SubID) []message.SubID {
	m.view.reset(e)
	out, start := scratch, len(scratch)
	for id, p := range m.subs {
		if p.eval(&m.view) {
			out = append(out, id)
		}
	}
	sortIDs(out[start:])
	return out
}

func sortIDs(ids []message.SubID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
