package matching

import (
	"slices"
	"sort"

	"stopss/internal/message"
)

// Every matcher indexes the same compiled form of a subscription: a
// Plan, its predicate conjunction with identical predicates collapsed to
// one slot and the rest in a static pushdown order (DESIGN.md §12).
// Compiling is a pure function of the subscription: no cache, no
// selectivity statistics and no global state.

// PlanPred is one compiled predicate of a Plan: the predicate itself plus
// its canonical form (unique-predicate identity).
type PlanPred struct {
	Pred  message.Predicate
	Canon string
}

// opClass buckets operators by evaluation cost and typical selectivity:
// cheap, selective tests run first so non-matching events exit the
// verification loop as early as possible.
func opClass(op message.Op) uint8 {
	switch op {
	case message.OpEq:
		return 0
	case message.OpBetween:
		return 1
	case message.OpLt, message.OpLe, message.OpGt, message.OpGe:
		return 2
	case message.OpPrefix, message.OpSuffix:
		return 3
	case message.OpContains:
		return 4
	case message.OpNe:
		return 5
	case message.OpExists:
		return 6
	case message.OpNotExists:
		return 7
	default:
		return 8
	}
}

// Plan is a compiled subscription: its predicate conjunction, identical
// predicates collapsed to one slot, ordered by operator class and then
// canonical form. A Plan is immutable once compiled.
type Plan struct {
	preds []PlanPred
}

// Compile validates the subscription and returns its plan. Identical
// predicates collapse to a single slot (they are satisfied together, so
// one slot keeps conjunction counting exact for every algorithm), and the
// order depends only on the predicate set, so permuted or duplicated
// predicates compile to the same plan.
func Compile(sub message.Subscription) (*Plan, error) {
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	preds := make([]PlanPred, len(sub.Preds))
	for i, pr := range sub.Preds {
		preds[i] = PlanPred{Pred: pr, Canon: pr.Canonical()}
	}
	// Equal canonical forms share an operator, hence a class, so after
	// the sort duplicates are adjacent; the stable sort keeps the first.
	sort.SliceStable(preds, func(i, j int) bool {
		a, b := &preds[i], &preds[j]
		if ca, cb := opClass(a.Pred.Op), opClass(b.Pred.Op); ca != cb {
			return ca < cb
		}
		return a.Canon < b.Canon
	})
	preds = slices.CompactFunc(preds, func(a, b PlanPred) bool { return a.Canon == b.Canon })
	return &Plan{preds: preds}, nil
}

// Preds exposes the compiled predicates in pushdown order. The slice
// must not be mutated by callers.
func (p *Plan) Preds() []PlanPred { return p.preds }

// eval verifies the plan against an event, predicates in pushdown order
// with early exit.
func (p *Plan) eval(e message.Event) bool {
	for i := range p.preds {
		if !p.preds[i].Pred.Matches(e) {
			return false
		}
	}
	return true
}
