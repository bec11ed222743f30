package core

import (
	"strings"
	"testing"

	"stopss/internal/message"
	"stopss/internal/semantic"
)

func TestExplainPaperExample(t *testing.T) {
	eng := NewEngine(paperStage(t))
	if err := eng.Subscribe(paperSubscription(1)); err != nil {
		t.Fatal(err)
	}
	x, err := eng.Explain(1, paperEvent())
	if err != nil {
		t.Fatal(err)
	}
	if !x.Matched {
		t.Fatalf("explanation says no match:\n%s", x)
	}
	if len(x.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(x.Steps))
	}
	// university = Toronto: witnessed by the synonym-rewritten root
	// event pair — present in the rewritten event, but DERIVED relative
	// to the original publication (which said "school").
	uni := x.Steps[0]
	if !uni.Satisfied || uni.Witness.Attr != "university" || !uni.Derived || uni.Rule != semantic.OriginSynonym {
		t.Errorf("university step = %+v", uni)
	}
	// degree = PhD: carried verbatim by the original publication.
	deg := x.Steps[1]
	if !deg.Satisfied || deg.Derived || deg.Rule != semantic.OriginOriginal {
		t.Errorf("degree step = %+v", deg)
	}
	// professional experience >= 4: derived by the mapping function.
	exp := x.Steps[2]
	if !exp.Satisfied || !exp.Derived || exp.Witness.Val.IntVal() != 13 || exp.Rule != semantic.MappingOrigin("experience-from-graduation") {
		t.Errorf("experience step = %+v", exp)
	}
	text := x.String()
	for _, want := range []string{"MATCH", "DERIVED by the semantic stage (synonym)",
		"DERIVED by the semantic stage (mapping:experience-from-graduation)", "from the original publication"} {
		if !strings.Contains(text, want) {
			t.Errorf("explanation text missing %q:\n%s", want, text)
		}
	}
}

// TestExplainHierarchyRule: a witness the concept hierarchy added is
// attributed to it; a not-exists step names no rule.
func TestExplainHierarchyRule(t *testing.T) {
	eng := NewEngine(paperStage(t))
	if err := eng.Subscribe(message.NewSubscription(1, "c",
		message.Pred("degree", message.OpEq, message.String("graduate degree")),
		message.Pred("salary", message.OpNotExists, message.None()))); err != nil {
		t.Fatal(err)
	}
	x, err := eng.Explain(1, paperEvent())
	if err != nil {
		t.Fatal(err)
	}
	gen, absent := x.Steps[0], x.Steps[1]
	if !x.Matched || gen.Rule != semantic.OriginHierarchy || !gen.Derived || gen.Witness.Val.Str() != "graduate degree" {
		t.Errorf("hierarchy step = %+v", gen)
	}
	if !absent.Satisfied || absent.Rule != "" || absent.Derived {
		t.Errorf("not-exists step = %+v", absent)
	}
	if !strings.Contains(x.String(), "DERIVED by the semantic stage (hierarchy)") {
		t.Errorf("text = %s", x)
	}
}

func TestExplainNoMatch(t *testing.T) {
	eng := NewEngine(paperStage(t))
	if err := eng.Subscribe(paperSubscription(1)); err != nil {
		t.Fatal(err)
	}
	// A candidate with too little experience: graduated 2001 → 2 years.
	x, err := eng.Explain(1, message.E("school", "Toronto", "degree", "PhD", "graduation year", 2001))
	if err != nil {
		t.Fatal(err)
	}
	if x.Matched {
		t.Fatalf("should not match:\n%s", x)
	}
	var failed *ExplainStep
	for i := range x.Steps {
		if !x.Steps[i].Satisfied {
			failed = &x.Steps[i]
		}
	}
	if failed == nil || failed.Predicate.Attr != "professional experience" {
		t.Errorf("wrong failing step: %+v", x.Steps)
	}
	if !strings.Contains(x.String(), "NO MATCH") || !strings.Contains(x.String(), "✗") {
		t.Errorf("text = %s", x.String())
	}
}

func TestExplainSyntacticMode(t *testing.T) {
	eng := NewEngine(paperStage(t), WithMode(Syntactic))
	if err := eng.Subscribe(paperSubscription(1)); err != nil {
		t.Fatal(err)
	}
	x, err := eng.Explain(1, paperEvent())
	if err != nil {
		t.Fatal(err)
	}
	if x.Matched {
		t.Error("syntactic mode must not match the paper pair")
	}
	// In syntactic mode nothing is ever derived.
	for _, s := range x.Steps {
		if s.Derived {
			t.Errorf("syntactic step claims derivation: %+v", s)
		}
	}
}

func TestExplainNotExistsAndErrors(t *testing.T) {
	eng := NewEngine(paperStage(t))
	s := message.NewSubscription(2, "c",
		message.Pred("salary", message.OpNotExists, message.None()),
		message.Pred("degree", message.OpEq, message.String("PhD")))
	if err := eng.Subscribe(s); err != nil {
		t.Fatal(err)
	}
	x, err := eng.Explain(2, message.E("degree", "PhD"))
	if err != nil {
		t.Fatal(err)
	}
	if !x.Matched {
		t.Fatalf("should match:\n%s", x)
	}
	if !strings.Contains(x.String(), "attribute absent") {
		t.Errorf("not-exists witness missing:\n%s", x)
	}

	if _, err := eng.Explain(99, message.E("a", 1)); err == nil {
		t.Error("unknown subscription must error")
	}
	if _, err := eng.Explain(2, message.Event{}); err == nil {
		t.Error("invalid event must error")
	}
}

// TestExplainConsistentWithPublish: Explain's verdict must agree with
// the engine's actual matching decision on arbitrary workload pairs.
func TestExplainConsistentWithPublish(t *testing.T) {
	eng := NewEngine(paperStage(t))
	subs := []message.Subscription{
		paperSubscription(1),
		message.NewSubscription(2, "c", message.Pred("degree", message.OpEq, message.String("graduate degree"))),
		message.NewSubscription(3, "c", message.Pred("nothing", message.OpEq, message.Int(1))),
	}
	for _, s := range subs {
		if err := eng.Subscribe(s); err != nil {
			t.Fatal(err)
		}
	}
	events := []message.Event{
		paperEvent(),
		message.E("degree", "PhD"),
		message.E("x", 1),
	}
	for _, ev := range events {
		res, err := eng.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		matched := make(map[message.SubID]bool)
		for _, id := range res.Matches {
			matched[id] = true
		}
		for _, s := range subs {
			x, err := eng.Explain(s.ID, ev)
			if err != nil {
				t.Fatal(err)
			}
			if x.Matched != matched[s.ID] {
				t.Errorf("Explain(%d, %v) = %v, Publish says %v", s.ID, ev, x.Matched, matched[s.ID])
			}
		}
	}
}
