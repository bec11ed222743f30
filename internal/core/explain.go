package core

import (
	"fmt"
	"strings"

	"stopss/internal/message"
	"stopss/internal/semantic"
)

// Explanation traces why one subscription matched one publication: per
// predicate, which attribute/value pair of the saturated event satisfied
// it and which rule of the semantic stage put that pair there — the
// original publication, a synonym, the concept hierarchy, or a named
// mapping function. The demonstration's
// purpose — "the real power of this scheme is only apparent by
// witnessing how seamlessly unrelated objects end up matching" (paper
// §4) — is exactly what an explanation makes visible.
type Explanation struct {
	SubID      message.SubID
	Subscriber string
	Matched    bool
	Steps      []ExplainStep
}

// ExplainStep records the witness for one predicate.
type ExplainStep struct {
	Predicate message.Predicate
	// Satisfied reports whether the saturated event satisfied the
	// predicate (false only when the subscription did not match).
	Satisfied bool
	// Rule is the origin of the witness: semantic.OriginOriginal,
	// OriginSynonym, OriginHierarchy or "mapping:<name>" (empty for
	// not-exists, which is witnessed by absence).
	Rule semantic.Origin
	// Witness is the satisfying pair (absent for not-exists).
	Witness message.Pair
	// Derived reports whether the semantic stage created the witness
	// pair: its Rule is neither original nor empty.
	Derived bool
}

// Explain re-runs the semantic saturation of ev and traces how the stored
// subscription id is (or is not) satisfied. It is a diagnostic path: it
// does not touch engine statistics.
func (e *Engine) Explain(id message.SubID, ev message.Event) (Explanation, error) {
	if err := ev.Validate(); err != nil {
		return Explanation{}, err
	}
	e.mu.RLock()
	orig, ok := e.originals[id]
	mode := e.mode
	e.mu.RUnlock()
	if !ok {
		return Explanation{}, fmt.Errorf("core: unknown subscription %d", id)
	}

	// Reproduce the indexed form and the saturation outside the lock
	// (Stage and ProcessSubscription are read-only over the knowledge
	// structures).
	sub := orig.Clone()
	sat, origins := ev, []semantic.Origin(nil)
	if mode == Semantic {
		sub, _ = e.stage.ProcessSubscription(sub)
		var res semantic.Result
		res, origins = e.stage.ExplainEvent(ev)
		sat = res.Event
	}

	out := Explanation{SubID: id, Subscriber: orig.Subscriber, Matched: true}
	for _, p := range sub.Preds {
		step := ExplainStep{Predicate: p}
		if i, found := witness(p, sat); found {
			step.Satisfied = true
			if i >= 0 {
				step.Witness = sat.Pair(i)
				step.Rule = semantic.OriginOriginal
				if origins != nil {
					step.Rule = origins[i]
				}
				step.Derived = step.Rule != semantic.OriginOriginal
			}
		}
		if !step.Satisfied {
			out.Matched = false
		}
		out.Steps = append(out.Steps, step)
	}
	return out, nil
}

// witness returns the index of the first pair of ev satisfying p.
// Not-exists predicates are witnessed by the attribute's absence
// (index -1).
func witness(p message.Predicate, ev message.Event) (int, bool) {
	if p.Op == message.OpNotExists {
		return -1, !ev.Has(p.Attr)
	}
	for i, pair := range ev.Pairs() {
		if pair.Attr == p.Attr && p.Eval(pair.Val, true) {
			return i, true
		}
	}
	return -1, false
}

// String renders the explanation as a human-readable trace.
func (x Explanation) String() string {
	var sb strings.Builder
	verdict := "MATCH"
	if !x.Matched {
		verdict = "NO MATCH"
	}
	fmt.Fprintf(&sb, "%s — subscription %d (%s)\n", verdict, x.SubID, x.Subscriber)
	for _, s := range x.Steps {
		switch {
		case !s.Satisfied:
			fmt.Fprintf(&sb, "  ✗ %s — no pair of the saturated event satisfies it\n", s.Predicate)
		case s.Predicate.Op == message.OpNotExists:
			fmt.Fprintf(&sb, "  ✓ %s — attribute absent\n", s.Predicate)
		case s.Derived:
			fmt.Fprintf(&sb, "  ✓ %s — by (%s, %s), DERIVED by the semantic stage (%s)\n",
				s.Predicate, s.Witness.Attr, s.Witness.Val, s.Rule)
		default:
			fmt.Fprintf(&sb, "  ✓ %s — by (%s, %s) from the original publication\n",
				s.Predicate, s.Witness.Attr, s.Witness.Val)
		}
	}
	return sb.String()
}
