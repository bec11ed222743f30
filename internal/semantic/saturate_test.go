package semantic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
	"stopss/internal/workload"
)

// branchExpand is the stage's former expansion, kept as the reference
// the saturated event is checked against: a frontier of derived events,
// each a copy of its parent plus the pairs of one hierarchy step (every
// pair generalized by attribute or by value) or of one mapping function,
// deduplicated by signature and bounded by MaxRounds and maxEvents.
// Events a hierarchy step produced are not generalized again; a mapping
// child of one re-generalizes every pair it carries.
func branchExpand(st *semantic.Stage, e message.Event, maxEvents int) []message.Event {
	cfg := st.Config()
	root := message.Event{}
	for _, p := range e.Pairs() {
		attr := p.Attr
		if cfg.Synonyms {
			attr, _ = st.Synonyms().Canonical(attr)
		}
		root.Add(attr, p.Val)
	}
	events := []message.Event{root}
	if !cfg.Hierarchy && !cfg.Mappings {
		return events
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = semantic.DefaultMaxRounds
	}
	type derived struct {
		ev     message.Event
		fromCH bool
	}
	seen := map[string]bool{root.Signature(): true}
	admit := func(ev message.Event) bool {
		if sig := ev.Signature(); !seen[sig] && len(events) < maxEvents {
			seen[sig] = true
			events = append(events, ev)
			return true
		}
		return false
	}
	generalize := func(ev message.Event) (message.Event, int) {
		out, added := ev.Clone(), 0
		for _, p := range ev.Pairs() {
			for _, anc := range st.Hierarchy().Ancestors(p.Attr, cfg.MaxGeneralization) {
				if out.AddUnique(anc, p.Val) {
					added++
				}
			}
			if p.Val.Kind() == message.KindString {
				for _, anc := range st.Hierarchy().Ancestors(p.Val.Str(), cfg.MaxGeneralization) {
					if out.AddUnique(p.Attr, message.String(anc)) {
						added++
					}
				}
			}
		}
		return out, added
	}
	frontier := []derived{{ev: root}}
	for round := 0; round < maxRounds && len(frontier) > 0; round++ {
		var next []derived
		for _, d := range frontier {
			if cfg.Hierarchy && !d.fromCH {
				if gen, added := generalize(d.ev); added > 0 && admit(gen) {
					next = append(next, derived{ev: gen, fromCH: true})
				}
			}
			if cfg.Mappings {
				for _, f := range st.Mappings().Applicable(d.ev) {
					child, added := d.ev.Clone(), 0
					for _, p := range f.Apply(d.ev) {
						if child.AddUnique(p.Attr, p.Val) {
							added++
						}
					}
					if added > 0 && admit(child) {
						next = append(next, derived{ev: child})
					}
				}
			}
		}
		frontier = next
	}
	return events
}

// pairSet keys an event's pairs by attribute and canonical value.
func pairSet(ev message.Event) map[string]bool {
	set := make(map[string]bool, ev.Len())
	for _, p := range ev.Pairs() {
		set[p.Attr+"\x1f"+p.Val.Canonical()] = true
	}
	return set
}

func anyMatches(s message.Subscription, events []message.Event) bool {
	for _, ev := range events {
		if s.Matches(ev) {
			return true
		}
	}
	return false
}

// randOnt is a small random knowledge base over attributes a0..a5 (a0
// with the synonym s0) and values v0..v7.
type randOnt struct {
	syn   *semantic.Synonyms
	h     *semantic.Hierarchy
	m     *semantic.Mappings
	both  message.Pair // what the conjunctive rule "both" derives
	attrs []string
	vals  []string
}

var (
	ontAttrs = []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	ontVals  = []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
)

// randomOntology draws random is-a edges among attributes and among
// values (so a pair can generalize by attribute, by value, or both),
// four PairMap rules, and one conjunctive rule "both" that needs two
// pairs at once and declares both of their attributes as triggers.
func randomOntology(rng *rand.Rand) randOnt {
	attrs, vals := ontAttrs, ontVals
	syn := semantic.NewSynonyms()
	_ = syn.AddGroup("a0", "s0")
	h := semantic.NewHierarchy()
	for _, terms := range [][]string{attrs, vals} {
		for i := 1; i < len(terms); i++ {
			if rng.Intn(2) == 0 {
				_ = h.AddIsA(terms[i], terms[rng.Intn(i)])
			}
		}
	}
	pair := func() message.Pair {
		return message.Pair{Attr: attrs[rng.Intn(len(attrs))], Val: message.String(vals[rng.Intn(len(vals))])}
	}
	m := semantic.NewMappings()
	for i := 0; i < 4; i++ {
		from := pair()
		derived := []message.Pair{pair()}
		if rng.Intn(2) == 0 {
			derived = append(derived, pair())
		}
		_ = m.Add(semantic.PairMap{MapName: fmt.Sprintf("m%d", i), Attr: from.Attr, Match: from.Val, Derived: derived})
	}
	x, y, out := pair(), pair(), pair()
	_ = m.Add(semantic.FuncOf{
		FName:     "both",
		FTriggers: []string{x.Attr, y.Attr},
		FApply: func(e message.Event) []message.Pair {
			if hasPair(e, x) && hasPair(e, y) {
				return []message.Pair{out}
			}
			return nil
		},
	})
	return randOnt{syn: syn, h: h, m: m, both: out, attrs: attrs, vals: vals}
}

func (o randOnt) stage(cfg semantic.Config) *semantic.Stage {
	return semantic.NewStage(o.syn, o.h, o.m, cfg)
}

func hasPair(e message.Event, want message.Pair) bool {
	for _, p := range e.Pairs() {
		if p.Attr == want.Attr && p.Val.Equal(want.Val) {
			return true
		}
	}
	return false
}

// TestSaturationContainsBranchExpansion checks, on random ontologies,
// the relation DESIGN.md §4 documents between the saturated event and
// the former branch expansion under the same MaxRounds (unlimited
// generalization levels):
//   - every pair of every derived event is in the saturated event;
//   - so a subscription without not-exists that some derived event
//     matched matches the saturated event;
//   - cross-branch conjunctions (pairs from two branches) and mapping
//     functions that need values from two branches match only the
//     saturated event;
//   - not-exists is judged on the saturated event: it fails when any
//     rule derived the attribute, even where the root event matched;
//   - a truncated saturation is contained in a longer one, and an
//     untruncated one equals it.
//
// Each case must actually occur in the generated population.
func TestSaturationContainsBranchExpansion(t *testing.T) {
	var crossBranch, notExistsLost, multiValued, truncated int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := randomOntology(rng)
		attrs, vals := o.attrs, o.vals
		rounds := 1 + rng.Intn(4)
		st := o.stage(semantic.Config{Synonyms: true, Hierarchy: true, Mappings: true, MaxRounds: rounds})
		longer := o.stage(semantic.Config{Synonyms: true, Hierarchy: true, Mappings: true, MaxRounds: rounds + 1})
		for k := 0; k < 10; k++ {
			ev := message.Event{}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				attr := attrs[rng.Intn(len(attrs))]
				if attr == "a0" && rng.Intn(2) == 0 {
					attr = "s0"
				}
				ev.Add(attr, message.String(vals[rng.Intn(len(vals))]))
			}
			ref := branchExpand(st, ev, 1<<12)
			res := st.ProcessEvent(ev)
			sat := pairSet(res.Event)
			for _, dev := range ref {
				for key := range pairSet(dev) {
					if !sat[key] {
						t.Fatalf("seed %d: event %v: derived pair %q of %v missing from saturated %v", seed, ev, key, dev, res.Event)
					}
				}
			}
			if res.Truncated {
				truncated++
			}
			more := longer.ProcessEvent(ev)
			for key := range sat {
				if !pairSet(more.Event)[key] {
					t.Fatalf("seed %d: %d rounds derived %q, %d rounds did not", seed, rounds, key, rounds+1)
				}
			}
			if !res.Truncated && !more.Event.Equal(res.Event) {
				t.Fatalf("seed %d: untruncated %v differs from %v with one more round", seed, res.Event, more.Event)
			}
			if hasPair(res.Event, o.both) && !anyHas(ref, o.both) {
				multiValued++
			}

			for j := 0; j < 20; j++ {
				var preds []message.Predicate
				for n := 1 + rng.Intn(3); n > 0; n-- {
					preds = append(preds, message.Pred(attrs[rng.Intn(len(attrs))], message.OpEq, message.String(vals[rng.Intn(len(vals))])))
				}
				negated := rng.Intn(4) == 0
				if negated {
					preds = append(preds, message.Pred(attrs[rng.Intn(len(attrs))], message.OpNotExists, message.None()))
				}
				sub := message.NewSubscription(1, "c", preds...)
				old, now := anyMatches(sub, ref), sub.Matches(res.Event)
				switch {
				case !negated && old && !now:
					t.Fatalf("seed %d: %v matched the branch expansion of %v but not saturated %v", seed, sub, ev, res.Event)
				case !negated && now && !old:
					crossBranch++
				case negated && old && !now:
					absent := preds[len(preds)-1].Attr
					if !res.Event.Has(absent) {
						t.Fatalf("seed %d: %v lost a match although %q is absent from %v", seed, sub, absent, res.Event)
					}
					notExistsLost++
				}
			}
		}
	}
	t.Logf("cross-branch %d, not-exists lost %d, multi-valued mapping %d, truncated %d",
		crossBranch, notExistsLost, multiValued, truncated)
	if crossBranch == 0 || notExistsLost == 0 || multiValued == 0 || truncated == 0 {
		t.Errorf("a documented case never occurred: cross-branch %d, not-exists %d, multi-valued %d, truncated %d",
			crossBranch, notExistsLost, multiValued, truncated)
	}
}

func anyHas(events []message.Event, p message.Pair) bool {
	for _, ev := range events {
		if hasPair(ev, p) {
			return true
		}
	}
	return false
}

// TestSaturationHoldsLevelBoundAfterMapping pins the one place where
// the branch expansion derived a pair the saturated event lacks: a
// mapping child of a generalized event re-generalized the hierarchy's
// own pairs, climbing past MaxGeneralization. The saturated stage
// generalizes each pair once, from the rule that made it.
func TestSaturationHoldsLevelBoundAfterMapping(t *testing.T) {
	h := semantic.NewHierarchy()
	if err := h.AddIsA("x0", "x1"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddIsA("x1", "x2"); err != nil {
		t.Fatal(err)
	}
	m := semantic.NewMappings()
	if err := m.Add(semantic.PairMap{MapName: "m", Attr: "a", Match: message.String("x1"),
		Derived: []message.Pair{{Attr: "b", Val: message.Int(1)}}}); err != nil {
		t.Fatal(err)
	}
	st := semantic.NewStage(nil, h, m, semantic.Config{Hierarchy: true, Mappings: true, MaxGeneralization: 1})
	ev := message.E("a", "x0")
	climbed := message.Pair{Attr: "a", Val: message.String("x2")}
	if !anyHas(branchExpand(st, ev, 64), climbed) {
		t.Fatal("reference no longer climbs past the bound; this test pins nothing")
	}
	res := st.ProcessEvent(ev)
	if want := message.E("a", "x0", "a", "x1", "b", 1); !res.Event.Equal(want) {
		t.Errorf("saturated event = %v, want %v (x2 is two levels up)", res.Event, want)
	}
}

// TestSaturationEqualsBranchExpansionOnWorkloads: on the populations
// the benchmark and the experiments run — the job-finder domain and the
// generated ontology — none of the documented differences arises, so
// the saturated event matches exactly the subscriptions the union over
// derived events matched.
func TestSaturationEqualsBranchExpansionOnWorkloads(t *testing.T) {
	ont, err := ontology.Load(workload.JobsODL, ontology.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jf := workload.NewJobFinder(2003)
	gen, err := workload.New(workload.Config{Seed: 7, SynonymProb: 0.7, ConceptProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	populations := []struct {
		name   string
		stage  *semantic.Stage
		subs   []message.Subscription
		events []message.Event
	}{
		{"jobfinder", ont.Stage(semantic.FullConfig()), jf.Recruiters(300), jf.Resumes(300)},
		{"generated", gen.KB().Stage(semantic.FullConfig()), gen.Subscriptions(300), gen.Events(300)},
	}
	for _, p := range populations {
		matched := 0
		for _, ev := range p.events {
			ref := branchExpand(p.stage, ev, 64)
			sat := p.stage.ProcessEvent(ev).Event
			for _, s := range p.subs {
				canon, _ := p.stage.ProcessSubscription(s)
				old, now := anyMatches(canon, ref), canon.Matches(sat)
				if old != now {
					t.Fatalf("%s: %v on %v: branch expansion says %v, saturated %v says %v", p.name, canon, ev, old, sat, now)
				}
				if now {
					matched++
				}
			}
		}
		if matched == 0 {
			t.Errorf("%s: no subscription matched; the comparison shows nothing", p.name)
		}
		t.Logf("%s: %d matches agree", p.name, matched)
	}
}

// TestExplainEventOrigins: ExplainEvent reports one origin per pair of
// the saturated event, naming the rule that added it.
func TestExplainEventOrigins(t *testing.T) {
	syn := semantic.NewSynonyms()
	if err := syn.AddGroup("university", "school"); err != nil {
		t.Fatal(err)
	}
	h := semantic.NewHierarchy()
	if err := h.AddIsA("PhD", "graduate degree"); err != nil {
		t.Fatal(err)
	}
	m := semantic.NewMappings()
	if err := m.Add(semantic.PairMap{MapName: "cobol", Attr: "position", Match: message.String("mainframe developer"),
		Derived: []message.Pair{{Attr: "skill", Val: message.String("COBOL")}}}); err != nil {
		t.Fatal(err)
	}
	st := semantic.NewStage(syn, h, m, semantic.FullConfig())
	ev := message.E("school", "Toronto", "degree", "PhD", "position", "mainframe developer")
	res, origins := st.ExplainEvent(ev)
	if plain := st.ProcessEvent(ev); !plain.Event.Equal(res.Event) || plain.Rounds != res.Rounds {
		t.Fatalf("ExplainEvent saturated to %v, ProcessEvent to %v", res.Event, plain.Event)
	}
	want := map[string]semantic.Origin{
		"university": semantic.OriginSynonym,
		"degree":     semantic.OriginOriginal,
		"position":   semantic.OriginOriginal,
		"skill":      semantic.MappingOrigin("cobol"),
	}
	if len(origins) != res.Event.Len() {
		t.Fatalf("%d origins for %d pairs", len(origins), res.Event.Len())
	}
	for i, p := range res.Event.Pairs() {
		o, ok := want[p.Attr]
		if p.Attr == "degree" && p.Val.Str() == "graduate degree" {
			o, ok = semantic.OriginHierarchy, true
		}
		if !ok || origins[i] != o {
			t.Errorf("pair %d (%s, %s): origin %q, want %q", i, p.Attr, p.Val, origins[i], o)
		}
	}
	if _, origins := semantic.NewStage(nil, nil, nil, semantic.SyntacticConfig()).ExplainEvent(ev); len(origins) != 3 || origins[0] != semantic.OriginOriginal {
		t.Errorf("syntactic origins = %v, want 3 × original", origins)
	}
}

// FuzzSaturate checks two properties of saturation on a fixed random
// ontology with unlimited generalization levels: saturating a saturated
// event adds nothing unless MaxRounds ran out, and the result does not
// depend on the order of the publication's pairs. Each input byte pair
// picks one (attribute, value) pair.
func FuzzSaturate(f *testing.F) {
	o := randomOntology(rand.New(rand.NewSource(3)))
	attrs, vals := o.attrs, o.vals
	st := o.stage(semantic.Config{Synonyms: true, Hierarchy: true, Mappings: true, MaxRounds: 8})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 7, 6, 0, 2, 3, 2, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 || len(in) > 32 {
			return
		}
		ev, rev := message.Event{}, message.Event{}
		for i := 0; i+1 < len(in); i += 2 {
			ev.Add(attrs[int(in[i])%len(attrs)], message.String(vals[int(in[i+1])%len(vals)]))
		}
		for i := ev.Len() - 1; i >= 0; i-- {
			rev.AddPair(ev.Pair(i))
		}
		res := st.ProcessEvent(ev)
		if again := st.ProcessEvent(res.Event); !res.Truncated && !again.Event.Equal(res.Event) {
			t.Fatalf("re-saturating %v added pairs: %v", res.Event, again.Event)
		}
		if back := st.ProcessEvent(rev); !back.Event.Equal(res.Event) || back.Truncated != res.Truncated {
			t.Fatalf("pair order changed the saturation: %v → %v, reversed %v → %v", ev, res.Event, rev, back.Event)
		}
	})
}
