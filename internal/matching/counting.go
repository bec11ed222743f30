package matching

import (
	"fmt"
	"sort"

	"stopss/internal/message"
)

// Counting matches by access predicate over a shared unique-predicate
// index. It joins the two algorithms the S-ToPSS paper extends: the
// counting algorithm of Aguilera, Strom, Sturman, Astley and Chandra,
// "Matching events in a content-based subscription system" (PODC 1999),
// citation [1], and the access-predicate clustering of Fabret, Jacobsen,
// Llirbat, Pereira, Ross and Shasha, "Filtering algorithms and
// implementation for very fast publish/subscribe systems" (SIGMOD 2001),
// citation [4].
//
// As in counting, identical predicates appearing in many subscriptions
// are stored once (unique-predicate table keyed by the predicate's
// canonical form; plans arrive pre-deduplicated from the planner, so a
// subscription holds each distinct predicate exactly once). Per
// attribute — keyed by its interned symbol — there is an
// operator-specific index:
//
//   - equality:  hash  value → predicates               (O(1) probe)
//   - ordering:  sorted threshold arrays per operator   (binary search)
//   - between:   intervals sorted by lower bound
//   - existence: per-attribute list
//   - the rest (≠, prefix/suffix/contains, non-numeric ordering) live in
//     a per-attribute scan list evaluated directly.
//
// As in Fabret's clustering, each subscription hangs off exactly one of
// its predicates, its access predicate: the one of lowest operator cost
// class (equality first), ties broken by the shortest access list, so
// the lists stay balanced. Match runs in two phases. Phase 1 walks the
// event's pairs through the indexes and stamps every satisfied unique
// predicate with the Match's epoch. Phase 2 visits only the access lists
// of satisfied predicates and checks each member's other slots by their
// stamp. No predicate is evaluated twice and no per-subscription counter
// is kept; a subscription whose access predicate failed is never
// touched, and each subscription is checked at most once per Match.
type Counting struct {
	planner
	preds     map[string]*cPred               // canonical form → unique predicate
	subs      map[message.SubID]*cSub         // indexed subscriptions
	attrs     map[message.Sym]*attrIndex      // per-attribute operator indexes
	notExists map[message.Sym]map[*cPred]bool // attr → not-exists predicates
	plans     map[*Plan]*cPlan                // plan → its unique-predicate slots
	epoch     uint64
	evSyms    []message.Sym // per-Match scratch: event attribute symbols
	hits      []*cPred      // per-Match scratch: satisfied predicates with access members
}

// cPlan is the counting matcher's compiled form of a shared Plan: the
// unique-predicate slots it references, built once and reused by every
// subscription sharing the plan.
type cPlan struct {
	cpreds []*cPred
	refs   int // subscriptions in this matcher using the plan
}

type cPred struct {
	pred    message.Predicate
	sym     message.Sym // interned attribute
	access  []*cSub     // subscriptions whose access predicate this is
	refs    int         // total references (for removal bookkeeping)
	hitAt   uint64      // epoch of last satisfaction (per-event dedup)
	ordered bool        // tracked by a sorted threshold index
}

type cSub struct {
	id     message.SubID
	plan   *Plan
	cpreds []*cPred // the plan's shared slots
	access *cPred   // the slot whose access list holds this subscription
	pos    int      // index in access.access
}

// attrIndex groups the per-attribute structures of the counting matcher.
type attrIndex struct {
	eq       map[string][]*cPred // canonical value → equality predicates
	lt       thresholds          // attr < t
	le       thresholds          // attr <= t
	gt       thresholds          // attr > t
	ge       thresholds          // attr >= t
	between  []*cPred            // sorted by lower bound
	exists   []*cPred
	scan     []*cPred // evaluated directly per pair
	betweenD bool     // between slice needs re-sort
	n        int      // indexed predicates on the attribute; 0 frees the entry
}

// thresholds is a sorted multiset of numeric cut points with their
// predicates.
type thresholds struct {
	cuts  []float64
	preds []*cPred
	dirty bool
}

func (t *thresholds) add(cut float64, p *cPred) {
	t.cuts = append(t.cuts, cut)
	t.preds = append(t.preds, p)
	t.dirty = true
}

func (t *thresholds) sortIfDirty() {
	if !t.dirty {
		return
	}
	idx := make([]int, len(t.cuts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return t.cuts[idx[a]] < t.cuts[idx[b]] })
	cuts := make([]float64, len(t.cuts))
	preds := make([]*cPred, len(t.preds))
	for i, j := range idx {
		cuts[i] = t.cuts[j]
		preds[i] = t.preds[j]
	}
	t.cuts, t.preds, t.dirty = cuts, preds, false
}

func (t *thresholds) remove(p *cPred) {
	for i := range t.preds {
		if t.preds[i] == p {
			t.cuts = append(t.cuts[:i], t.cuts[i+1:]...)
			t.preds = append(t.preds[:i], t.preds[i+1:]...)
			return
		}
	}
}

// NewCounting returns an empty counting matcher.
func NewCounting() *Counting {
	return &Counting{
		planner:   newPlanner(),
		preds:     make(map[string]*cPred),
		subs:      make(map[message.SubID]*cSub),
		attrs:     make(map[message.Sym]*attrIndex),
		notExists: make(map[message.Sym]map[*cPred]bool),
		plans:     make(map[*Plan]*cPlan),
	}
}

// Name implements Matcher.
func (m *Counting) Name() string { return "counting" }

// Size implements Matcher.
func (m *Counting) Size() int { return len(m.subs) }

// UniquePredicates reports the size of the shared predicate table, a key
// statistic of the counting algorithm (predicate sharing across
// subscriptions is what makes it sublinear).
func (m *Counting) UniquePredicates() int { return len(m.preds) }

func (m *Counting) attr(sym message.Sym) *attrIndex {
	ai := m.attrs[sym]
	if ai == nil {
		ai = &attrIndex{eq: make(map[string][]*cPred)}
		m.attrs[sym] = ai
	}
	return ai
}

// Add implements Matcher.
func (m *Counting) Add(id message.SubID, p *Plan) error {
	if p == nil {
		return fmt.Errorf("matching: nil plan for subscription %d", id)
	}
	if _, dup := m.subs[id]; dup {
		return fmt.Errorf("matching: subscription %d already indexed", id)
	}
	cp := m.plans[p]
	if cp == nil {
		cp = &cPlan{cpreds: make([]*cPred, 0, p.NumPreds())}
		for i := range p.Preds() {
			pp := &p.Preds()[i]
			u := m.preds[pp.Canon]
			if u == nil {
				u = &cPred{pred: pp.Pred, sym: pp.Sym}
				m.preds[pp.Canon] = u
				m.indexPredicate(u)
			}
			cp.cpreds = append(cp.cpreds, u)
		}
		m.plans[p] = cp
	}
	cp.refs++
	cs := &cSub{id: id, plan: p, cpreds: cp.cpreds}
	for _, u := range cp.cpreds {
		u.refs++
		if a := cs.access; a == nil || accessBefore(u, a) {
			cs.access = u
		}
	}
	cs.pos = len(cs.access.access)
	cs.access.access = append(cs.access.access, cs)
	m.subs[id] = cs
	m.retain(p)
	return nil
}

// accessBefore reports whether u makes a better access predicate than a:
// a cheaper operator class, or the same class with a shorter access list.
func accessBefore(u, a *cPred) bool {
	if cu, ca := opClass(u.pred.Op), opClass(a.pred.Op); cu != ca {
		return cu < ca
	}
	return len(u.access) < len(a.access)
}

// indexPredicate places a new unique predicate into the per-attribute
// operator structures.
func (m *Counting) indexPredicate(cp *cPred) {
	p := cp.pred
	ai := m.attr(cp.sym)
	ai.n++
	switch p.Op {
	case message.OpEq:
		ai.eq[p.Val.Canonical()] = append(ai.eq[p.Val.Canonical()], cp)
	case message.OpExists:
		ai.exists = append(ai.exists, cp)
	case message.OpNotExists:
		set := m.notExists[cp.sym]
		if set == nil {
			set = make(map[*cPred]bool)
			m.notExists[cp.sym] = set
		}
		set[cp] = true
	case message.OpLt, message.OpLe, message.OpGt, message.OpGe:
		if f, ok := p.Val.AsFloat(); ok {
			cp.ordered = true
			switch p.Op {
			case message.OpLt:
				ai.lt.add(f, cp)
			case message.OpLe:
				ai.le.add(f, cp)
			case message.OpGt:
				ai.gt.add(f, cp)
			case message.OpGe:
				ai.ge.add(f, cp)
			}
		} else {
			// Ordering over strings/bools: direct evaluation.
			ai.scan = append(ai.scan, cp)
		}
	case message.OpBetween:
		ai.between = append(ai.between, cp)
		ai.betweenD = true
	default:
		ai.scan = append(ai.scan, cp)
	}
}

// Remove implements Matcher.
func (m *Counting) Remove(id message.SubID) bool {
	cs, ok := m.subs[id]
	if !ok {
		return false
	}
	delete(m.subs, id)
	// Swap-delete from the access list: the last member takes this slot.
	a := cs.access
	last := len(a.access) - 1
	a.access[cs.pos] = a.access[last]
	a.access[cs.pos].pos = cs.pos
	a.access[last] = nil
	a.access = a.access[:last]
	cp := m.plans[cs.plan]
	for _, u := range cp.cpreds {
		u.refs--
		if u.refs == 0 {
			m.unindexPredicate(u)
			delete(m.preds, u.pred.Canonical())
		}
	}
	if cp.refs--; cp.refs == 0 {
		delete(m.plans, cs.plan)
	}
	m.release(cs.plan)
	return true
}

func (m *Counting) unindexPredicate(cp *cPred) {
	p := cp.pred
	ai := m.attrs[cp.sym]
	if ai == nil {
		return
	}
	if ai.n--; ai.n == 0 {
		// The attribute's last predicate: drop the whole entry, so
		// subscriptions on ever-fresh attribute names leave nothing
		// behind.
		delete(m.attrs, cp.sym)
	}
	removeFrom := func(s []*cPred) []*cPred {
		for i := range s {
			if s[i] == cp {
				return append(s[:i], s[i+1:]...)
			}
		}
		return s
	}
	switch p.Op {
	case message.OpEq:
		key := p.Val.Canonical()
		ai.eq[key] = removeFrom(ai.eq[key])
		if len(ai.eq[key]) == 0 {
			delete(ai.eq, key)
		}
	case message.OpExists:
		ai.exists = removeFrom(ai.exists)
	case message.OpNotExists:
		delete(m.notExists[cp.sym], cp)
		if len(m.notExists[cp.sym]) == 0 {
			delete(m.notExists, cp.sym)
		}
	case message.OpLt:
		if cp.ordered {
			ai.lt.remove(cp)
		} else {
			ai.scan = removeFrom(ai.scan)
		}
	case message.OpLe:
		if cp.ordered {
			ai.le.remove(cp)
		} else {
			ai.scan = removeFrom(ai.scan)
		}
	case message.OpGt:
		if cp.ordered {
			ai.gt.remove(cp)
		} else {
			ai.scan = removeFrom(ai.scan)
		}
	case message.OpGe:
		if cp.ordered {
			ai.ge.remove(cp)
		} else {
			ai.scan = removeFrom(ai.scan)
		}
	case message.OpBetween:
		ai.between = removeFrom(ai.between)
	default:
		ai.scan = removeFrom(ai.scan)
	}
}

// mark stamps a satisfied predicate with the current epoch and queues it
// for phase 2 when some subscription uses it as its access predicate.
func (m *Counting) mark(cp *cPred) {
	if cp.hitAt == m.epoch {
		return // predicate already satisfied by an earlier pair
	}
	cp.hitAt = m.epoch
	if len(cp.access) > 0 {
		m.hits = append(m.hits, cp)
	}
}

// Match implements Matcher.
func (m *Counting) Match(e message.Event, scratch []message.SubID) []message.SubID {
	m.epoch++
	m.evSyms = m.evSyms[:0]

	// Phase 1: stamp every satisfied unique predicate.
	for _, pair := range e.Pairs() {
		sym, ok := message.Interned(pair.Attr)
		if !ok {
			continue // no indexed predicate can reference this attribute
		}
		m.evSyms = append(m.evSyms, sym)
		ai := m.attrs[sym]
		if ai == nil {
			continue
		}
		// Equality probe.
		for _, cp := range ai.eq[pair.Val.Canonical()] {
			m.mark(cp)
		}
		// Existence.
		for _, cp := range ai.exists {
			m.mark(cp)
		}
		// Ordering thresholds.
		if x, ok := pair.Val.AsFloat(); ok {
			ai.lt.sortIfDirty()
			ai.le.sortIfDirty()
			ai.gt.sortIfDirty()
			ai.ge.sortIfDirty()
			// attr < t  satisfied for all t > x: suffix of sorted cuts.
			from := sort.Search(len(ai.lt.cuts), func(i int) bool { return ai.lt.cuts[i] > x })
			for _, cp := range ai.lt.preds[from:] {
				m.mark(cp)
			}
			// attr <= t satisfied for all t >= x.
			from = sort.Search(len(ai.le.cuts), func(i int) bool { return ai.le.cuts[i] >= x })
			for _, cp := range ai.le.preds[from:] {
				m.mark(cp)
			}
			// attr > t  satisfied for all t < x: prefix.
			to := sort.Search(len(ai.gt.cuts), func(i int) bool { return ai.gt.cuts[i] >= x })
			for _, cp := range ai.gt.preds[:to] {
				m.mark(cp)
			}
			// attr >= t satisfied for all t <= x.
			to = sort.Search(len(ai.ge.cuts), func(i int) bool { return ai.ge.cuts[i] > x })
			for _, cp := range ai.ge.preds[:to] {
				m.mark(cp)
			}
			// Intervals sorted by lower bound: candidates have lo <= x.
			if ai.betweenD {
				sort.SliceStable(ai.between, func(a, b int) bool {
					fa, _ := ai.between[a].pred.Val.AsFloat()
					fb, _ := ai.between[b].pred.Val.AsFloat()
					return fa < fb
				})
				ai.betweenD = false
			}
			n := sort.Search(len(ai.between), func(i int) bool {
				lo, _ := ai.between[i].pred.Val.AsFloat()
				return lo > x
			})
			for _, cp := range ai.between[:n] {
				if hi, ok := cp.pred.Hi.AsFloat(); ok && x <= hi {
					m.mark(cp)
				}
			}
		}
		// Residual predicates: direct evaluation.
		for _, cp := range ai.scan {
			if cp.hitAt != m.epoch && cp.pred.Eval(pair.Val, true) {
				m.mark(cp)
			}
		}
	}

	// Negation pass: a not-exists predicate is satisfied when the event
	// lacks the attribute entirely. Event attributes that were never
	// interned cannot collide with an indexed (hence interned) attribute.
	if len(m.notExists) > 0 {
	negation:
		for sym, set := range m.notExists {
			for _, es := range m.evSyms {
				if es == sym {
					continue negation
				}
			}
			for cp := range set {
				m.mark(cp)
			}
		}
	}

	// Phase 2: a subscription matches when every slot carries this
	// epoch's stamp. Each sits in one access list, so it is checked at
	// most once.
	out, start := scratch, len(scratch)
	for _, cp := range m.hits {
	members:
		for _, cs := range cp.access {
			for _, u := range cs.cpreds {
				if u.hitAt != m.epoch {
					continue members
				}
			}
			out = append(out, cs.id)
		}
	}
	clear(m.hits)
	m.hits = m.hits[:0]
	sortIDs(out[start:])
	return out
}
