package semantic

import (
	"strings"
	"testing"

	"stopss/internal/message"
)

// jobStage builds the job-finder knowledge base used by the paper's
// running examples.
func jobStage(t *testing.T, cfg Config) *Stage {
	t.Helper()
	syn := NewSynonyms()
	if err := syn.AddGroup("university", "school", "college"); err != nil {
		t.Fatal(err)
	}
	if err := syn.AddGroup("professional experience", "work experience"); err != nil {
		t.Fatal(err)
	}

	h := NewHierarchy()
	mustIsA(t, h, "phd", "graduate degree")
	mustIsA(t, h, "msc", "graduate degree")
	mustIsA(t, h, "graduate degree", "degree")
	mustIsA(t, h, "bsc", "degree")

	m := NewMappings()
	if err := m.Add(experienceFunc(2003)); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(PairMap{
		MapName: "mainframe-to-cobol",
		Attr:    "position",
		Match:   message.String("mainframe developer"),
		Derived: []message.Pair{{Attr: "skill", Val: message.String("COBOL")}},
	}); err != nil {
		t.Fatal(err)
	}
	return NewStage(syn, h, m, cfg)
}

func TestStageSynonymRewrite(t *testing.T) {
	st := jobStage(t, Config{Synonyms: true})
	res := st.ProcessEvent(message.E("school", "Toronto", "work experience", 5))
	if len(res.Events) != 1 {
		t.Fatalf("Events = %d, want 1 (no CH/MF enabled)", len(res.Events))
	}
	root := res.Events[0]
	if !root.Has("university") || !root.Has("professional experience") {
		t.Errorf("root event not rewritten: %v", root)
	}
	if root.Has("school") || root.Has("work experience") {
		t.Errorf("original attribute names must be replaced, not duplicated: %v", root)
	}
	if res.SynonymRewrites != 2 {
		t.Errorf("SynonymRewrites = %d, want 2", res.SynonymRewrites)
	}
}

func TestStageSubscriptionRewrite(t *testing.T) {
	st := jobStage(t, Config{Synonyms: true})
	s := message.NewSubscription(1, "c",
		message.Pred("school", message.OpEq, message.String("Toronto")),
		message.Pred("degree", message.OpEq, message.String("PhD")))
	out, rewrites := st.ProcessSubscription(s)
	if rewrites != 1 {
		t.Errorf("rewrites = %d, want 1", rewrites)
	}
	if out.Preds[0].Attr != "university" {
		t.Errorf("subscription attribute not canonicalized: %v", out)
	}
	// Original untouched.
	if s.Preds[0].Attr != "school" {
		t.Error("ProcessSubscription must not mutate its input")
	}
	// Disabled stage: identity.
	st2 := jobStage(t, Config{})
	out2, r2 := st2.ProcessSubscription(s)
	if r2 != 0 || out2.Preds[0].Attr != "school" {
		t.Error("disabled stage must be the identity on subscriptions")
	}
}

func TestStageValueSynonyms(t *testing.T) {
	syn := NewSynonyms()
	if err := syn.AddGroup("car", "automobile"); err != nil {
		t.Fatal(err)
	}
	st := NewStage(syn, nil, nil, Config{Synonyms: true, SynonymValues: true})
	res := st.ProcessEvent(message.E("item", "automobile"))
	if v, _ := res.Events[0].Get("item"); v.Str() != "car" {
		t.Errorf("value synonym not applied: %v", res.Events[0])
	}
	// Off by default (paper-faithful attribute-level behaviour).
	st2 := NewStage(syn, nil, nil, Config{Synonyms: true})
	res2 := st2.ProcessEvent(message.E("item", "automobile"))
	if v, _ := res2.Events[0].Get("item"); v.Str() != "automobile" {
		t.Errorf("value synonyms must be off by default: %v", res2.Events[0])
	}
}

func TestStageHierarchyGeneralizesValues(t *testing.T) {
	st := jobStage(t, Config{Hierarchy: true})
	res := st.ProcessEvent(message.E("degree", "phd"))
	if len(res.Events) != 2 {
		t.Fatalf("Events = %d, want root + generalized", len(res.Events))
	}
	gen := res.Events[1]
	vals := gen.GetAll("degree")
	var got []string
	for _, v := range vals {
		got = append(got, v.Str())
	}
	joined := strings.Join(got, ",")
	if !strings.Contains(joined, "phd") || !strings.Contains(joined, "graduate degree") || !strings.Contains(joined, "degree") {
		t.Errorf("generalized event misses ancestors: %v", gen)
	}
	if res.HierarchyPairs != 2 {
		t.Errorf("HierarchyPairs = %d, want 2", res.HierarchyPairs)
	}
}

func TestStageHierarchyGeneralizesAttributes(t *testing.T) {
	h := NewHierarchy()
	mustIsA(t, h, "salary", "compensation")
	st := NewStage(nil, h, nil, Config{Hierarchy: true})
	res := st.ProcessEvent(message.E("salary", 90))
	if len(res.Events) != 2 {
		t.Fatalf("Events = %d, want 2", len(res.Events))
	}
	if v, ok := res.Events[1].Get("compensation"); !ok || v.IntVal() != 90 {
		t.Errorf("attribute generalization missing: %v", res.Events[1])
	}
}

func TestStageRuleR2NoSpecialization(t *testing.T) {
	// An event carrying the GENERAL term must not acquire specialized
	// variants: rule R2 of the paper.
	st := jobStage(t, Config{Hierarchy: true})
	res := st.ProcessEvent(message.E("degree", "degree"))
	for _, ev := range res.Events {
		for _, v := range ev.GetAll("degree") {
			if v.Str() == "phd" || v.Str() == "msc" || v.Str() == "bsc" {
				t.Fatalf("rule R2 violated: specialized value %q added to %v", v.Str(), ev)
			}
		}
	}
}

func TestStageGeneralizationLevelBound(t *testing.T) {
	st := jobStage(t, Config{Hierarchy: true, MaxGeneralization: 1})
	res := st.ProcessEvent(message.E("degree", "phd"))
	gen := res.Events[len(res.Events)-1]
	for _, v := range gen.GetAll("degree") {
		if v.Str() == "degree" {
			t.Fatalf("level bound 1 must stop at 'graduate degree', got %v", gen)
		}
	}
	found := false
	for _, v := range gen.GetAll("degree") {
		if v.Str() == "graduate degree" {
			found = true
		}
	}
	if !found {
		t.Fatalf("level-1 ancestor missing: %v", gen)
	}
}

func TestStageMappingDerivesEvent(t *testing.T) {
	st := jobStage(t, Config{Synonyms: true, Mappings: true})
	res := st.ProcessEvent(message.E("school", "Toronto", "graduation year", 1993))
	if len(res.Events) != 2 {
		t.Fatalf("Events = %d, want root + mapped", len(res.Events))
	}
	mapped := res.Events[1]
	if v, ok := mapped.Get("professional experience"); !ok || v.IntVal() != 10 {
		t.Errorf("mapping result missing: %v", mapped)
	}
	// The derived event keeps its parent's pairs (Figure 1: new events
	// still carry the original content).
	if !mapped.Has("university") {
		t.Errorf("derived event lost parent pairs: %v", mapped)
	}
	if res.MappingCalls == 0 || res.MappingPairs != 1 {
		t.Errorf("stats wrong: %+v", res)
	}
}

func TestStageFixpointMappingThenHierarchy(t *testing.T) {
	// A mapping function derives a value that the hierarchy then
	// generalizes — the CH↔MF interaction of §3.2.
	h := NewHierarchy()
	mustIsA(t, h, "cobol", "legacy language")
	m := NewMappings()
	if err := m.Add(PairMap{
		MapName: "mainframe-to-cobol",
		Attr:    "position",
		Match:   message.String("mainframe developer"),
		Derived: []message.Pair{{Attr: "skill", Val: message.String("cobol")}},
	}); err != nil {
		t.Fatal(err)
	}
	st := NewStage(nil, h, m, Config{Hierarchy: true, Mappings: true})
	res := st.ProcessEvent(message.E("position", "mainframe developer"))

	// Expect some event to carry skill = legacy language.
	found := false
	for _, ev := range res.Events {
		for _, v := range ev.GetAll("skill") {
			if v.Str() == "legacy language" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("fixpoint did not generalize mapped value; events: %v", res.Events)
	}
	if res.Rounds < 2 {
		t.Errorf("Rounds = %d, want >= 2 (MF then CH)", res.Rounds)
	}
}

func TestStageFixpointHierarchyThenMapping(t *testing.T) {
	// The hierarchy generalizes a value for which a mapping function
	// exists — the reverse interaction.
	h := NewHierarchy()
	mustIsA(t, h, "sedan", "car")
	m := NewMappings()
	if err := m.Add(FuncOf{
		FName:     "car-insurance",
		FTriggers: []string{"item"},
		FApply: func(e message.Event) []message.Pair {
			for _, v := range e.GetAll("item") {
				if v.Kind() == message.KindString && v.Str() == "car" {
					return []message.Pair{{Attr: "needs", Val: message.String("insurance")}}
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	st := NewStage(nil, h, m, Config{Hierarchy: true, Mappings: true})
	res := st.ProcessEvent(message.E("item", "sedan"))
	found := false
	for _, ev := range res.Events {
		if ev.Has("needs") {
			found = true
		}
	}
	if !found {
		t.Fatalf("CH-derived value did not trigger mapping; events: %v", res.Events)
	}
}

func TestStageDeduplication(t *testing.T) {
	// Two mapping functions deriving identical pairs produce one event.
	m := NewMappings()
	for _, name := range []string{"f1", "f2"} {
		if err := m.Add(FuncOf{
			FName:     name,
			FTriggers: []string{"a"},
			FApply: func(message.Event) []message.Pair {
				return []message.Pair{{Attr: "b", Val: message.Int(1)}}
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStage(nil, nil, m, Config{Mappings: true})
	res := st.ProcessEvent(message.E("a", 0))
	if len(res.Events) != 2 {
		t.Fatalf("Events = %d, want 2 (duplicate suppressed)", len(res.Events))
	}
	if res.Deduplicated == 0 {
		t.Error("Deduplicated counter should be positive")
	}
}

func TestStageCycleTermination(t *testing.T) {
	// Two mapping functions that keep deriving fresh pairs from each
	// other's output: the rounds/events budget must stop the loop.
	m := NewMappings()
	if err := m.Add(FuncOf{
		FName:     "ping",
		FTriggers: []string{"a"},
		FApply: func(e message.Event) []message.Pair {
			n := int64(e.Len())
			return []message.Pair{{Attr: "b", Val: message.Int(n)}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(FuncOf{
		FName:     "pong",
		FTriggers: []string{"b"},
		FApply: func(e message.Event) []message.Pair {
			n := int64(e.Len())
			return []message.Pair{{Attr: "a", Val: message.Int(n)}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	st := NewStage(nil, nil, m, Config{Mappings: true, MaxRounds: 3, MaxEvents: 10})
	res := st.ProcessEvent(message.E("a", 0))
	if len(res.Events) > 10 {
		t.Fatalf("event budget exceeded: %d", len(res.Events))
	}
	if res.Rounds > 3 {
		t.Fatalf("round budget exceeded: %d", res.Rounds)
	}
}

func TestStageTruncationFlag(t *testing.T) {
	m := NewMappings()
	// A single function that derives a distinct pair per call count.
	calls := 0
	if err := m.Add(FuncOf{
		FName:     "fanout",
		FTriggers: []string{"a"},
		FApply: func(e message.Event) []message.Pair {
			calls++
			return []message.Pair{{Attr: "x", Val: message.Int(int64(calls))}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	st := NewStage(nil, nil, m, Config{Mappings: true, MaxRounds: 50, MaxEvents: 3})
	res := st.ProcessEvent(message.E("a", 0))
	if !res.Truncated {
		t.Error("Truncated flag should be set when MaxEvents is hit")
	}
	if len(res.Events) != 3 {
		t.Errorf("Events = %d, want exactly MaxEvents", len(res.Events))
	}
}

func TestStageSyntacticModeIsIdentity(t *testing.T) {
	st := jobStage(t, SyntacticConfig())
	e := message.E("school", "Toronto", "graduation year", 1993)
	res := st.ProcessEvent(e)
	if len(res.Events) != 1 || !res.Events[0].Equal(e) {
		t.Errorf("syntactic mode must pass the event through untouched: %+v", res)
	}
	if res.SynonymRewrites+res.HierarchyPairs+res.MappingPairs != 0 {
		t.Errorf("syntactic mode must do no semantic work: %+v", res)
	}
}

func TestStageNilComponentsSafe(t *testing.T) {
	st := NewStage(nil, nil, nil, FullConfig())
	res := st.ProcessEvent(message.E("a", 1))
	if len(res.Events) != 1 {
		t.Errorf("empty knowledge base should yield the root event only: %+v", res)
	}
	if st.Synonyms() == nil || st.Hierarchy() == nil || st.Mappings() == nil {
		t.Error("accessors must never return nil")
	}
}

func TestStageInputNotMutated(t *testing.T) {
	st := jobStage(t, FullConfig())
	e := message.E("school", "Toronto", "graduation year", 1993)
	before := e.Signature()
	_ = st.ProcessEvent(e)
	if e.Signature() != before {
		t.Error("ProcessEvent must not mutate its input")
	}
}

func TestStageStringSummary(t *testing.T) {
	st := jobStage(t, FullConfig())
	if s := st.String(); !strings.Contains(s, "funcs") {
		t.Errorf("String() = %q", s)
	}
}
