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
	if res.Event.Len() != 2 || res.Rounds != 0 {
		t.Fatalf("event %v after %d rounds, want the 2 rewritten pairs (no CH/MF enabled)", res.Event, res.Rounds)
	}
	root := res.Event
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
	if v, _ := res.Event.Get("item"); v.Str() != "car" {
		t.Errorf("value synonym not applied: %v", res.Event)
	}
	// Off by default (paper-faithful attribute-level behaviour).
	st2 := NewStage(syn, nil, nil, Config{Synonyms: true})
	res2 := st2.ProcessEvent(message.E("item", "automobile"))
	if v, _ := res2.Event.Get("item"); v.Str() != "automobile" {
		t.Errorf("value synonyms must be off by default: %v", res2.Event)
	}
}

func TestStageHierarchyGeneralizesValues(t *testing.T) {
	st := jobStage(t, Config{Hierarchy: true})
	res := st.ProcessEvent(message.E("degree", "phd"))
	// The original pair first, then both ancestors of its value, each
	// once, in the one saturated event.
	want := message.E("degree", "phd", "degree", "degree", "degree", "graduate degree")
	if !res.Event.Equal(want) || res.Event.Pair(0) != want.Pair(0) {
		t.Errorf("saturated event = %v, want %v with the original pair first", res.Event, want)
	}
	if res.HierarchyPairs != 2 || res.Rounds != 1 || res.Truncated {
		t.Errorf("HierarchyPairs = %d, Rounds = %d, Truncated = %v; want 2, 1, false", res.HierarchyPairs, res.Rounds, res.Truncated)
	}
}

func TestStageHierarchyGeneralizesAttributes(t *testing.T) {
	h := NewHierarchy()
	mustIsA(t, h, "salary", "compensation")
	st := NewStage(nil, h, nil, Config{Hierarchy: true})
	res := st.ProcessEvent(message.E("salary", 90))
	if want := message.E("salary", 90, "compensation", 90); !res.Event.Equal(want) {
		t.Errorf("saturated event = %v, want %v", res.Event, want)
	}
	if res.HierarchyPairs != 1 {
		t.Errorf("HierarchyPairs = %d, want 1", res.HierarchyPairs)
	}
}

// A pair whose attribute and value are both concepts generalizes in
// both at once: the publication's salary band is also a compensation
// band, so every ancestor attribute is paired with every ancestor value.
func TestStageHierarchyGeneralizesAttributeAndValue(t *testing.T) {
	h := NewHierarchy()
	mustIsA(t, h, "salary", "compensation")
	mustIsA(t, h, "six figures", "high")
	st := NewStage(nil, h, nil, Config{Hierarchy: true})
	res := st.ProcessEvent(message.E("salary", "six figures"))
	want := message.E("salary", "six figures", "compensation", "six figures",
		"salary", "high", "compensation", "high")
	if !res.Event.Equal(want) || res.HierarchyPairs != 3 {
		t.Errorf("saturated event = %v (%d hierarchy pairs), want %v (3)", res.Event, res.HierarchyPairs, want)
	}
}

func TestStageRuleR2NoSpecialization(t *testing.T) {
	// An event carrying the GENERAL term must not acquire specialized
	// variants: rule R2 of the paper.
	st := jobStage(t, Config{Hierarchy: true})
	res := st.ProcessEvent(message.E("degree", "degree"))
	for _, v := range res.Event.GetAll("degree") {
		if v.Str() == "phd" || v.Str() == "msc" || v.Str() == "bsc" {
			t.Fatalf("rule R2 violated: specialized value %q added to %v", v.Str(), res.Event)
		}
	}
}

func TestStageGeneralizationLevelBound(t *testing.T) {
	st := jobStage(t, Config{Hierarchy: true, MaxGeneralization: 1})
	res := st.ProcessEvent(message.E("degree", "phd"))
	gen := res.Event
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
	// The mapped pair joins the rewritten original pairs (Figure 1: the
	// derived content still carries the original content).
	want := message.E("university", "Toronto", "graduation year", 1993, "professional experience", 10)
	if !res.Event.Equal(want) {
		t.Errorf("saturated event = %v, want %v", res.Event, want)
	}
	if res.MappingCalls != 1 || res.MappingPairs != 1 || res.Rounds != 1 {
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

	want := message.E("position", "mainframe developer", "skill", "cobol", "skill", "legacy language")
	if !res.Event.Equal(want) {
		t.Fatalf("fixpoint did not generalize the mapped value: %v, want %v", res.Event, want)
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
	if want := message.E("item", "sedan", "item", "car", "needs", "insurance"); !res.Event.Equal(want) {
		t.Fatalf("CH-derived value did not trigger the mapping: %v, want %v", res.Event, want)
	}
}

func TestStageDeduplication(t *testing.T) {
	// Two mapping functions deriving identical pairs add the pair once.
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
	if want := message.E("a", 0, "b", 1); !res.Event.Equal(want) {
		t.Fatalf("saturated event = %v, want %v (duplicate suppressed)", res.Event, want)
	}
	if res.MappingCalls != 2 || res.MappingPairs != 1 {
		t.Errorf("MappingCalls = %d, MappingPairs = %d; want 2 calls adding 1 pair", res.MappingCalls, res.MappingPairs)
	}
}

func TestStageCycleTermination(t *testing.T) {
	// Two mapping functions that keep deriving fresh pairs from each
	// other's output: the round budget must stop the loop.
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
	st := NewStage(nil, nil, m, Config{Mappings: true, MaxRounds: 3})
	res := st.ProcessEvent(message.E("a", 0))
	if res.Rounds != 3 || !res.Truncated || res.Event.Len() != 4 {
		t.Fatalf("%d rounds, truncated %v, event %v; want 3 rounds of one pair each, truncated", res.Rounds, res.Truncated, res.Event)
	}
}

func TestStageTruncationFlag(t *testing.T) {
	// A function triggered by its own output derives a distinct pair
	// per call, so only MaxRounds stops it; a chain shorter than the
	// bound saturates untruncated.
	m := NewMappings()
	calls := 0
	if err := m.Add(FuncOf{
		FName:     "fanout",
		FTriggers: []string{"a", "x"},
		FApply: func(e message.Event) []message.Pair {
			calls++
			return []message.Pair{{Attr: "x", Val: message.Int(int64(calls))}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	st := NewStage(nil, nil, m, Config{Mappings: true, MaxRounds: 5})
	res := st.ProcessEvent(message.E("a", 0))
	if !res.Truncated {
		t.Error("Truncated flag should be set when MaxRounds runs out while pairs are still added")
	}
	if res.Rounds != 5 || len(res.Event.GetAll("x")) != 5 {
		t.Errorf("Rounds = %d, event %v; want 5 rounds adding x = 1..5", res.Rounds, res.Event)
	}

	chain := NewMappings()
	for _, hop := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if err := chain.Add(PairMap{MapName: hop[0] + hop[1], Attr: hop[0], Match: message.Int(0),
			Derived: []message.Pair{{Attr: hop[1], Val: message.Int(0)}}}); err != nil {
			t.Fatal(err)
		}
	}
	res = NewStage(nil, nil, chain, Config{Mappings: true, MaxRounds: 4}).ProcessEvent(message.E("a", 0))
	if res.Truncated || res.Rounds != 3 || res.Event.Len() != 4 {
		t.Errorf("3-hop chain under MaxRounds 4: %+v; want 3 rounds, 4 pairs, not truncated", res)
	}
	res = NewStage(nil, nil, chain, Config{Mappings: true, MaxRounds: 2}).ProcessEvent(message.E("a", 0))
	if !res.Truncated || res.Event.Len() != 3 {
		t.Errorf("3-hop chain under MaxRounds 2: %+v; want truncated after 3 pairs", res)
	}
}

func TestStageSyntacticModeIsIdentity(t *testing.T) {
	st := jobStage(t, SyntacticConfig())
	e := message.E("school", "Toronto", "graduation year", 1993)
	res := st.ProcessEvent(e)
	if !res.Event.Equal(e) {
		t.Errorf("syntactic mode must pass the event through untouched: %+v", res)
	}
	if res.SynonymRewrites+res.HierarchyPairs+res.MappingPairs != 0 {
		t.Errorf("syntactic mode must do no semantic work: %+v", res)
	}
}

func TestStageNilComponentsSafe(t *testing.T) {
	st := NewStage(nil, nil, nil, FullConfig())
	res := st.ProcessEvent(message.E("a", 1))
	if !res.Event.Equal(message.E("a", 1)) || res.Rounds != 0 {
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
