package workload

import (
	"strings"
	"testing"

	"stopss/internal/core"
	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
)

func TestGeneratorDeterministic(t *testing.T) {
	a, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ea, eb := a.Event(), b.Event()
		if !ea.Equal(eb) {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, ea, eb)
		}
		sa, sb := a.Subscription("c"), b.Subscription("c")
		if sa.Canonical() != sb.Canonical() {
			t.Fatalf("same seed diverged at subscription %d", i)
		}
	}
	c, err := New(Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 20; i++ {
		if a.Event().Equal(c.Event()) {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratedShapesRespectConfig(t *testing.T) {
	cfg := Config{Seed: 1, PredsMin: 2, PredsMax: 3, PairsMin: 4, PairsMax: 6}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s := g.Subscription("c")
		if len(s.Preds) < 2 || len(s.Preds) > 3 {
			t.Fatalf("subscription has %d predicates, want 2..3", len(s.Preds))
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("generated subscription invalid: %v", err)
		}
		e := g.Event()
		if e.Len() < 4 || e.Len() > 6 {
			t.Fatalf("event has %d pairs, want 4..6", e.Len())
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("generated event invalid: %v", err)
		}
	}
}

func TestSubscriptionIDsUnique(t *testing.T) {
	g, err := New(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[message.SubID]bool)
	for _, s := range g.Subscriptions(500) {
		if seen[s.ID] {
			t.Fatalf("duplicate subscription ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestKBStructure(t *testing.T) {
	g, err := New(Config{Seed: 3, Attributes: 10, SynonymsPerAttr: 2,
		ConceptTrees: 2, ConceptDepth: 3, ConceptFanout: 2, MappingChains: 2, ChainLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB()
	// 10 roots + 20 synonyms.
	if kb.Synonyms.Len() != 30 {
		t.Errorf("synonym terms = %d, want 30", kb.Synonyms.Len())
	}
	// Each tree: 1 + 2 + 4 + 8 = 15 nodes; 2 trees = 30.
	if kb.Hierarchy.Len() != 30 {
		t.Errorf("concepts = %d, want 30", kb.Hierarchy.Len())
	}
	if kb.Mappings.Len() != 6 {
		t.Errorf("mapping funcs = %d, want 6", kb.Mappings.Len())
	}
	// Synonyms resolve to roots.
	if got, _ := kb.Synonyms.Canonical("attr03~syn1"); got != "attr03" {
		t.Errorf("Canonical(attr03~syn1) = %q", got)
	}
	// Leaves are IsA roots.
	if !kb.Hierarchy.IsA("concept0.0.0.0", "concept0") {
		t.Error("tree leaf should be IsA its root")
	}
}

func TestSemanticWorkloadProducesSemanticMatches(t *testing.T) {
	// The point of the generator: with synonyms in play, semantic mode
	// must find strictly more matches than syntactic mode.
	g, err := New(Config{Seed: 4, SynonymProb: 0.9, ConceptProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	subs := g.Subscriptions(300)
	events := g.Events(300)

	count := func(mode core.Mode) int {
		eng := core.NewEngine(g.KB().Stage(semantic.FullConfig()), core.WithMode(mode))
		for _, s := range subs {
			if err := eng.Subscribe(s); err != nil {
				t.Fatal(err)
			}
		}
		total := 0
		for _, e := range events {
			res, err := eng.Publish(e)
			if err != nil {
				t.Fatal(err)
			}
			total += len(res.Matches)
		}
		return total
	}
	sem := count(core.Semantic)
	syn := count(core.Syntactic)
	if sem <= syn {
		t.Errorf("semantic matches (%d) should exceed syntactic (%d) on a synonym-heavy workload", sem, syn)
	}
}

func TestChainSeedTriggersFixpoint(t *testing.T) {
	g, err := New(Config{Seed: 5, MappingChains: 1, ChainLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := g.KB().Stage(semantic.Config{Mappings: true, MaxRounds: 8})
	res := st.ProcessEvent(g.ChainSeed(0))
	// hop0 derives hop1 derives hop2 …: every hop's pair is in the one
	// saturated event, one round each.
	want := message.E("chain0-hop0", 0, "chain0-hop1", 1, "chain0-hop2", 2, "chain0-hop3", 3, "chain0-hop4", 4)
	if !res.Event.Equal(want) {
		t.Errorf("chain saturated to %v, want %v (root + 4 hops)", res.Event, want)
	}
	if res.Rounds != 4 || res.Truncated {
		t.Errorf("Rounds = %d, Truncated = %v; want 4, false", res.Rounds, res.Truncated)
	}
}

func TestJobFinderScenario(t *testing.T) {
	jf := NewJobFinder(11)
	subs := jf.Recruiters(50)
	for _, s := range subs {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid recruiter subscription: %v", err)
		}
		if !strings.HasPrefix(s.Subscriber, "company-") {
			t.Fatalf("subscriber = %q", s.Subscriber)
		}
	}
	resumes := jf.Resumes(50)
	for _, e := range resumes {
		if err := e.Validate(); err != nil {
			t.Fatalf("invalid resume: %v", err)
		}
		if !e.Has("school") || !e.Has("graduation year") {
			t.Fatalf("resume missing publisher-side vocabulary: %v", e)
		}
		if e.Has("university") {
			t.Fatalf("resume should use publisher vocabulary, got %v", e)
		}
	}

	// End to end through the jobs ontology: semantic mode must produce
	// matches (resumes never say "university", so syntactic mode finds
	// nothing for university predicates).
	ont, err := ontology.Load(JobsODL, ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ont.Stage(semantic.FullConfig()))
	for _, s := range subs {
		if err := eng.Subscribe(s); err != nil {
			t.Fatal(err)
		}
	}
	semMatches := 0
	for _, e := range resumes {
		res, err := eng.Publish(e)
		if err != nil {
			t.Fatal(err)
		}
		semMatches += len(res.Matches)
	}
	if semMatches == 0 {
		t.Fatal("job-finder scenario produced no semantic matches")
	}
	if err := eng.SetMode(core.Syntactic); err != nil {
		t.Fatal(err)
	}
	synMatches := 0
	for _, e := range resumes {
		res, err := eng.Publish(e)
		if err != nil {
			t.Fatal(err)
		}
		synMatches += len(res.Matches)
	}
	if synMatches >= semMatches {
		t.Errorf("syntactic (%d) should find fewer matches than semantic (%d)", synMatches, semMatches)
	}
}

func TestAutosODLCompiles(t *testing.T) {
	ont, err := ontology.Load(AutosODL, ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ont.Hierarchy.IsA("sedan", "vehicle") {
		t.Error("autos hierarchy incomplete")
	}
	if got, _ := ont.Synonyms.Canonical("automobile"); got != "car" {
		t.Error("autos synonyms incomplete")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	g, err := New(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.Attributes != 20 || g.cfg.PredsMax != 4 || g.cfg.SynonymProb != 0.5 {
		t.Errorf("defaults not applied: %+v", g.cfg)
	}
	// Degenerate bounds are repaired.
	g2, err := New(Config{Seed: 9, PredsMin: 5, PredsMax: 2, PairsMin: 7, PairsMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g2.cfg.PredsMax != 5 || g2.cfg.PairsMax != 7 {
		t.Errorf("bound repair failed: %+v", g2.cfg)
	}
}
