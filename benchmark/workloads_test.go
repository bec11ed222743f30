package main

import (
	"reflect"
	"testing"

	"stopss/internal/core"
	"stopss/internal/matching"
	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/sublang"
	"stopss/internal/workload"
)

// The same seed gives the same inputs, another seed gives others, for
// every workload.
func TestScenariosDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newScenario(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newScenario(name, 11)
		c, _ := newScenario(name, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two scenarios from seed 11 differ", name)
		}
		if reflect.DeepEqual(a.Subs, c.Subs) || reflect.DeepEqual(a.Events, c.Events) {
			t.Errorf("%s: seeds 11 and 12 gave the same subscriptions or events", name)
		}
		if a.Rate <= 0 || len(a.Events) != eventPool || len(a.ChurnSubs) == 0 {
			t.Errorf("%s: rate %d, %d events, %d churn texts", name, a.Rate, len(a.Events), len(a.ChurnSubs))
		}
		for _, s := range a.Subs {
			if s.Client < 0 || s.Client >= len(a.Clients) || a.Clients[s.Client].Server >= a.Servers {
				t.Fatalf("%s: subscription %q has no home", name, s.Text)
			}
		}
	}
	if _, err := newScenario("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The generated ODL loads through ontology.Load and means what
// workload.Generator's in-memory knowledge base means: an engine over
// either gives the same matches for the scenario's own inputs.
func TestSelectiveODLAgreesWithGenerator(t *testing.T) {
	sc, err := newScenario("selective", 5)
	if err != nil {
		t.Fatal(err)
	}
	ont, err := ontology.Load(sc.ODL, ontology.Options{})
	if err != nil {
		t.Fatalf("generated ODL does not load: %v", err)
	}
	cfg := selectiveConfig(5)
	if want := cfg.Attributes * (1 + cfg.SynonymsPerAttr); ont.Synonyms.Len() != want {
		t.Errorf("ODL has %d synonym terms, want %d", ont.Synonyms.Len(), want)
	}
	if ont.Mappings.Len() != cfg.MappingChains*cfg.ChainLength {
		t.Errorf("ODL has %d mapping rules, want %d", ont.Mappings.Len(), cfg.MappingChains*cfg.ChainLength)
	}
	g, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*core.Engine{
		core.NewEngine(ont.Stage(semantic.FullConfig()), core.WithMatcher(matching.NewTree())),
		core.NewEngine(g.KB().Stage(semantic.FullConfig()), core.WithMatcher(matching.NewTree())),
	}
	for i, s := range sc.Subs {
		preds, err := sublang.ParseSubscription(s.Text)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			if err := e.Subscribe(message.NewSubscription(message.SubID(i+1), "", preds...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	matched := 0
	for _, in := range sc.Events[:1000] {
		ev, err := sublang.ParseEvent(in.Text)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := engines[0].Publish(ev)
		b, _ := engines[1].Publish(ev)
		if !reflect.DeepEqual(a.Matches, b.Matches) {
			t.Fatalf("event %q: ODL ontology matches %v, generator knowledge base %v", in.Text, a.Matches, b.Matches)
		}
		matched += len(a.Matches)
	}
	// The workload is tuned to one or two matches per publish.
	if per := float64(matched) / 1000; per < 0.5 || per > 3 {
		t.Errorf("selective gives %.2f matches per publish, want between 1 and 2", per)
	}
}

// The oracle gives every event its expected subscriptions in ascending
// order, and repeated event texts the same ones.
func TestOracleSolvesEveryEvent(t *testing.T) {
	sc, err := newScenario("fanout", 3)
	if err != nil {
		t.Fatal(err)
	}
	sc.Events = sc.Events[:300]
	sc.Events[299].Text = sc.Events[0].Text
	if err := sc.solve(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range sc.Events {
		total += len(e.Expect)
		for i := 1; i < len(e.Expect); i++ {
			if e.Expect[i-1] >= e.Expect[i] {
				t.Fatalf("expected subscriptions of %q not ascending: %v", e.Text, e.Expect)
			}
		}
	}
	if total == 0 {
		t.Fatal("the oracle expects no notification at all")
	}
	if !reflect.DeepEqual(sc.Events[0].Expect, sc.Events[299].Expect) {
		t.Error("the same event text solved to different expectations")
	}
	// Spot-check against the reference semantics directly: a recruiter
	// asking for the resume's own school must be among the expected.
	ev, _ := sublang.ParseEvent(sc.Events[0].Text)
	school, _ := ev.Get("school")
	want := "(university = " + school.Str() + ")"
	found := false
	for i, s := range sc.Subs {
		if s.Text == want {
			found = true
			pos := -1
			for _, x := range sc.Events[0].Expect {
				if int(x) == i {
					pos = i
				}
			}
			if pos < 0 {
				t.Errorf("subscription %q not expected for event %q", s.Text, sc.Events[0].Text)
			}
		}
	}
	if !found {
		t.Logf("no single-predicate subscription on %s in this seed; spot check skipped", school.Str())
	}
}
