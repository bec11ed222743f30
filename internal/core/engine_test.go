package core

import (
	"fmt"
	"sync"
	"testing"

	"stopss/internal/matching"
	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/workload"
)

// paperStage builds the knowledge base that makes every example in the
// paper's §1 and §3.1 work end to end.
func paperStage(t testing.TB) *semantic.Stage {
	t.Helper()
	syn := semantic.NewSynonyms()
	for root, syns := range map[string][]string{
		"university":              {"school", "college"},
		"professional experience": {"work experience"},
	} {
		if err := syn.AddGroup(root, syns...); err != nil {
			t.Fatal(err)
		}
	}

	h := semantic.NewHierarchy()
	for child, parent := range map[string]string{
		"PhD": "graduate degree", "MSc": "graduate degree",
		"graduate degree": "degree", "BSc": "degree",
	} {
		if err := h.AddIsA(child, parent); err != nil {
			t.Fatal(err)
		}
	}

	m := semantic.NewMappings()
	if err := m.Add(semantic.FuncOf{
		FName:     "experience-from-graduation",
		FTriggers: []string{"graduation year"},
		FApply: func(e message.Event) []message.Pair {
			v, ok := e.Get("graduation year")
			if !ok {
				return nil
			}
			y, ok := v.AsFloat()
			if !ok {
				return nil
			}
			// Present date fixed to the paper's publication year.
			return []message.Pair{{Attr: "professional experience", Val: message.Int(2003 - int64(y))}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	return semantic.NewStage(syn, h, m, semantic.FullConfig())
}

// paperSubscription is S of §1.
func paperSubscription(id message.SubID) message.Subscription {
	return message.NewSubscription(id, "recruiter",
		message.Pred("university", message.OpEq, message.String("Toronto")),
		message.Pred("degree", message.OpEq, message.String("PhD")),
		message.Pred("professional experience", message.OpGe, message.Int(4)),
	)
}

// paperEvent is E of §1.
func paperEvent() message.Event {
	return message.E(
		"school", "Toronto",
		"degree", "PhD",
		"work experience", true,
		"graduation year", 1990,
	)
}

// TestFigure1 is the golden end-to-end pipeline test (experiment F1):
// the §1 subscription/event pair that no syntactic system can match must
// match in semantic mode through the combination of all three stages
// (synonyms for university/school and professional experience/work
// experience, mapping function for experience-from-graduation).
func TestFigure1(t *testing.T) {
	for _, alg := range matching.Algorithms() {
		t.Run(alg, func(t *testing.T) {
			m, err := matching.New(alg)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(paperStage(t), WithMatcher(m))
			if err := eng.Subscribe(paperSubscription(1)); err != nil {
				t.Fatal(err)
			}

			res, err := eng.Publish(paperEvent())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 1 || res.Matches[0] != 1 {
				t.Fatalf("semantic mode: Matches = %v, want [1]\nexpansion: %+v",
					res.Matches, res.Expansion)
			}
			// One saturated event: the synonym-rewritten original pairs,
			// both generalizations of PhD and the mapped experience.
			want := message.E("university", "Toronto", "degree", "PhD", "professional experience", true,
				"graduation year", 1990, "degree", "graduate degree", "degree", "degree",
				"professional experience", 13)
			if !res.Expansion.Event.Equal(want) {
				t.Errorf("saturated event = %v, want %v", res.Expansion.Event, want)
			}

			// Syntactic mode: the same pair must NOT match.
			if err := eng.SetMode(Syntactic); err != nil {
				t.Fatal(err)
			}
			res, err = eng.Publish(paperEvent())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 0 {
				t.Fatalf("syntactic mode: Matches = %v, want none", res.Matches)
			}

			// And back: mode switches re-index correctly.
			if err := eng.SetMode(Semantic); err != nil {
				t.Fatal(err)
			}
			res, err = eng.Publish(paperEvent())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 1 {
				t.Fatalf("after switching back: Matches = %v, want [1]", res.Matches)
			}
		})
	}
}

func TestSection31SynonymExample(t *testing.T) {
	// S: (university = Toronto) ∧ (professional experience ≥ 4)
	// E: (school, Toronto)(professional experience, 5)
	eng := NewEngine(paperStage(t))
	s := message.NewSubscription(7, "recruiter",
		message.Pred("university", message.OpEq, message.String("Toronto")),
		message.Pred("professional experience", message.OpGe, message.Int(4)))
	if err := eng.Subscribe(s); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Publish(message.E("school", "Toronto", "professional experience", 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("Matches = %v, want [7]", res.Matches)
	}
}

func TestHierarchyDirectionality(t *testing.T) {
	// Subscription asks for the GENERAL term; event carries the
	// SPECIALIZED one → match (R1). The reverse must not match (R2).
	eng := NewEngine(paperStage(t))
	general := message.NewSubscription(1, "c",
		message.Pred("degree", message.OpEq, message.String("graduate degree")))
	specific := message.NewSubscription(2, "c",
		message.Pred("degree", message.OpEq, message.String("PhD")))
	for _, s := range []message.Subscription{general, specific} {
		if err := eng.Subscribe(s); err != nil {
			t.Fatal(err)
		}
	}

	res, err := eng.Publish(message.E("degree", "PhD"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("specialized event: Matches = %v, want [1 2]", res.Matches)
	}

	res, err = eng.Publish(message.E("degree", "graduate degree"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0] != 1 {
		t.Fatalf("general event: Matches = %v, want [1] only (rule R2)", res.Matches)
	}
}

func TestSemanticSupersetOfSyntactic(t *testing.T) {
	// Property: for positive (negation-free) subscriptions, the semantic
	// match set contains the syntactic one.
	eng := NewEngine(paperStage(t))
	subs := []message.Subscription{
		message.NewSubscription(1, "c", message.Pred("university", message.OpEq, message.String("Toronto"))),
		message.NewSubscription(2, "c", message.Pred("school", message.OpEq, message.String("Toronto"))),
		message.NewSubscription(3, "c", message.Pred("degree", message.OpEq, message.String("degree"))),
	}
	for _, s := range subs {
		if err := eng.Subscribe(s); err != nil {
			t.Fatal(err)
		}
	}
	events := []message.Event{
		message.E("school", "Toronto"),
		message.E("university", "Toronto"),
		message.E("degree", "PhD"),
		message.E("nothing", 1),
	}
	for _, ev := range events {
		if err := eng.SetMode(Syntactic); err != nil {
			t.Fatal(err)
		}
		syn, err := eng.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetMode(Semantic); err != nil {
			t.Fatal(err)
		}
		sem, err := eng.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[message.SubID]bool)
		for _, id := range sem.Matches {
			in[id] = true
		}
		for _, id := range syn.Matches {
			if !in[id] {
				t.Fatalf("event %v: syntactic match %d missing from semantic set %v", ev, id, sem.Matches)
			}
		}
	}
	// And subscription 1 vs 2: after canonicalization both match the
	// school event in semantic mode.
	if err := eng.SetMode(Semantic); err != nil {
		t.Fatal(err)
	}
	res, _ := eng.Publish(message.E("school", "Toronto"))
	if len(res.Matches) < 2 {
		t.Errorf("synonym subscriptions should both match: %v", res.Matches)
	}

	// Recall is monotone across the cumulative stages, per event, on a
	// generated workload: syntactic ⊆ +synonyms ⊆ +hierarchy ⊆ full.
	gen, err := workload.New(workload.Config{Seed: 2, SynonymProb: 0.6, ConceptProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	stages := []struct {
		name string
		mode Mode
		cfg  semantic.Config
	}{
		{"syntactic", Syntactic, semantic.SyntacticConfig()},
		{"+synonyms", Semantic, semantic.Config{Synonyms: true}},
		{"+hierarchy", Semantic, semantic.Config{Synonyms: true, Hierarchy: true}},
		{"full", Semantic, semantic.FullConfig()},
	}
	engines := make([]*Engine, len(stages))
	genSubs := gen.Subscriptions(300)
	for i, st := range stages {
		engines[i] = NewEngine(gen.KB().Stage(st.cfg), WithMode(st.mode))
		for _, s := range genSubs {
			if err := engines[i].Subscribe(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	totals := make([]int, len(stages))
	for _, ev := range gen.Events(100) {
		var prev map[message.SubID]bool
		for i, eng := range engines {
			res, err := eng.Publish(ev)
			if err != nil {
				t.Fatal(err)
			}
			totals[i] += len(res.Matches)
			cur := make(map[message.SubID]bool, len(res.Matches))
			for _, id := range res.Matches {
				cur[id] = true
			}
			for id := range prev {
				if !cur[id] {
					t.Fatalf("event %v: %s match %d lost at %s", ev, stages[i-1].name, id, stages[i].name)
				}
			}
			prev = cur
		}
	}
	if totals[len(totals)-1] <= totals[0] {
		t.Errorf("semantic stages added no recall: totals %v", totals)
	}
}

func TestSubscribeLifecycleAndErrors(t *testing.T) {
	eng := NewEngine(paperStage(t))
	s := paperSubscription(1)
	if err := eng.Subscribe(s); err != nil {
		t.Fatal(err)
	}
	if err := eng.Subscribe(s); err == nil {
		t.Error("duplicate subscribe must fail")
	}
	if err := eng.Subscribe(message.NewSubscription(2, "c")); err == nil {
		t.Error("invalid subscription must fail")
	}
	if _, err := eng.Publish(message.Event{}); err == nil {
		t.Error("invalid event must fail")
	}
	if got, ok := eng.Subscription(1); !ok || got.Subscriber != "recruiter" {
		t.Errorf("Subscription(1) = %v, %v", got, ok)
	}
	// Stored form is the ORIGINAL (pre-canonicalization) one.
	if got, _ := eng.Subscription(1); got.Preds[0].Attr != "university" {
		t.Errorf("original subscription mutated: %v", got)
	}
	if eng.Size() != 1 {
		t.Errorf("Size = %d, want 1", eng.Size())
	}
	if !eng.Unsubscribe(1) || eng.Unsubscribe(1) {
		t.Error("Unsubscribe semantics wrong")
	}
	if _, ok := eng.Subscription(1); ok {
		t.Error("unsubscribed ID still resolvable")
	}
	if eng.Size() != 0 {
		t.Errorf("Size = %d, want 0", eng.Size())
	}
}

func TestModeParsingAndString(t *testing.T) {
	if m, err := ParseMode("semantic"); err != nil || m != Semantic {
		t.Errorf("ParseMode(semantic) = %v, %v", m, err)
	}
	if m, err := ParseMode("syntactic"); err != nil || m != Syntactic {
		t.Errorf("ParseMode(syntactic) = %v, %v", m, err)
	}
	if _, err := ParseMode("other"); err == nil {
		t.Error("unknown mode must fail")
	}
	if Semantic.String() != "semantic" || Syntactic.String() != "syntactic" {
		t.Error("Mode.String broken")
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := NewEngine(paperStage(t))
	if err := eng.Subscribe(paperSubscription(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Publish(paperEvent()); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Events != 5 {
		t.Errorf("Events = %d, want 5", st.Events)
	}
	if st.Matches != 5 {
		t.Errorf("Matches = %d, want 5", st.Matches)
	}
	// One saturated event per publication, carrying 2 synonym
	// rewrites, 2 generalized pairs and 1 mapped pair.
	if st.DerivedEvents != 5 {
		t.Errorf("DerivedEvents = %d, want 5", st.DerivedEvents)
	}
	if st.SynonymRewrites != 10 || st.HierarchyPairs != 10 || st.MappingPairs != 5 || st.MappingCalls != 5 || st.Truncated != 0 {
		t.Errorf("semantic counters wrong: %+v", st)
	}
	if st.Subscriptions != 1 || st.SubsAdded != 1 {
		t.Errorf("subscription counters wrong: %+v", st)
	}
	if st.SemanticTime <= 0 || st.MatchTime <= 0 {
		t.Errorf("timing counters empty: %+v", st)
	}
}

func TestEngineDefaultsAndNilStage(t *testing.T) {
	eng := NewEngine(nil)
	if eng.MatcherName() != "counting" {
		t.Errorf("default matcher = %q, want counting", eng.MatcherName())
	}
	if eng.Mode() != Semantic {
		t.Error("default mode should be semantic")
	}
	if eng.Stage() == nil {
		t.Fatal("Stage() must not be nil")
	}
	// Engine with empty knowledge base still matches syntactically.
	if err := eng.Subscribe(message.NewSubscription(1, "c",
		message.Pred("a", message.OpEq, message.Int(1)))); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Publish(message.E("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Errorf("Matches = %v", res.Matches)
	}
}

func TestEngineConcurrentPublishSubscribe(t *testing.T) {
	eng := NewEngine(paperStage(t), WithMatcher(matching.NewCounting()))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := message.SubID(w * 1000)
			for i := 0; i < 50; i++ {
				id := base + message.SubID(i)
				s := message.NewSubscription(id, fmt.Sprintf("c%d", w),
					message.Pred("university", message.OpEq, message.String("Toronto")))
				if err := eng.Subscribe(s); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Publish(message.E("school", "Toronto")); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					eng.Unsubscribe(id)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Sanity: remaining subscriptions all match.
	res, err := eng.Publish(message.E("school", "Toronto"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != eng.Size() {
		t.Errorf("matches %d != size %d", len(res.Matches), eng.Size())
	}
}

func TestLossToleranceKnob(t *testing.T) {
	// §3.2: restricting the generality level reduces matches.
	syn := semantic.NewSynonyms()
	h := semantic.NewHierarchy()
	chain := []string{"l0", "l1", "l2", "l3", "l4"}
	for i := 0; i+1 < len(chain); i++ {
		if err := h.AddIsA(chain[i], chain[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	for level := 0; level <= 4; level++ {
		cfg := semantic.Config{Hierarchy: true, MaxGeneralization: level}
		if level == 0 {
			cfg.MaxGeneralization = 0 // unlimited
		}
		eng := NewEngine(semantic.NewStage(syn, h, nil, cfg))
		for i, term := range chain {
			s := message.NewSubscription(message.SubID(i+1), "c",
				message.Pred("x", message.OpEq, message.String(term)))
			if err := eng.Subscribe(s); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Publish(message.E("x", "l0"))
		if err != nil {
			t.Fatal(err)
		}
		want := 5 // unlimited: l0..l4 all match
		if level > 0 {
			want = level + 1
		}
		if len(res.Matches) != want {
			t.Errorf("level %d: matches = %d, want %d (%v)", level, len(res.Matches), want, res.Matches)
		}
		// Rule R2: the most general event matches only its own
		// subscription, whatever the bound.
		res, err = eng.Publish(message.E("x", "l4"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0] != 5 {
			t.Errorf("level %d: general event matches = %v, want [5] (rule R2)", level, res.Matches)
		}
	}
}

// TestCrossDomainBridge is the multi-domain case of §3.2: on the merged
// jobs + autos ontology a jobs publication reaches an autos subscription
// only once a bridge mapping function is installed.
func TestCrossDomainBridge(t *testing.T) {
	for _, bridge := range []bool{false, true} {
		jobs, err := ontology.Load(workload.JobsODL, ontology.Options{})
		if err != nil {
			t.Fatal(err)
		}
		autos, err := ontology.Load(workload.AutosODL, ontology.Options{})
		if err != nil {
			t.Fatal(err)
		}
		merged, err := ontology.Merge(jobs, autos)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if bridge {
			want = 1
			// Developer positions come with a company car; the autos
			// hierarchy then generalizes car to vehicle.
			if err := merged.Mappings.Add(semantic.FuncOf{
				FName:     "bridge.position-to-vehicle",
				FTriggers: []string{"position"},
				FApply: func(message.Event) []message.Pair {
					return []message.Pair{{Attr: "vehicle", Val: message.String("car")}}
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		eng := NewEngine(merged.Stage(semantic.FullConfig()))
		if err := eng.Subscribe(message.NewSubscription(1, "dealer",
			message.Pred("vehicle", message.OpEq, message.String("vehicle")))); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Publish(message.E("position", "web developer", "school", "Toronto"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != want {
			t.Errorf("bridge=%v: matches = %v, want %d", bridge, res.Matches, want)
		}
	}
}
