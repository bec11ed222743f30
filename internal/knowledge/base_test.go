package knowledge

import (
	"math/rand"
	"testing"

	"stopss/internal/message"
	"stopss/internal/semantic"
)

func stamp(origin, epoch string, seq uint64, d Delta) Delta {
	d.Origin, d.Epoch, d.Seq = origin, epoch, seq
	return d
}

func testDeltas() []Delta {
	return []Delta{
		stamp("a", "e1", 1, Delta{Op: OpAddSynonym, Root: "position", Terms: []string{"job", "post"}}),
		stamp("a", "e1", 2, Delta{Op: OpAddIsA, Child: "sedan", Parent: "car"}),
		stamp("a", "e1", 3, Delta{Op: OpAddConcept, Term: "vehicle"}),
		stamp("b", "e9", 1, Delta{Op: OpAddSynonym, Root: "salary", Terms: []string{"pay"}}),
		stamp("b", "e9", 2, Delta{Op: OpAddIsA, Child: "car", Parent: "vehicle"}),
		stamp("b", "e9", 3, Delta{Op: OpAddMapping, Map: &MapDecl{
			Name: "m1", Attr: "position", Match: message.String("mainframe developer"),
			Derived: []DerivedPair{{Attr: "skill", Val: message.String("COBOL")}},
		}}),
		stamp("b", "e9", 4, Delta{Op: OpRetire, Name: "m1"}),
		// Deterministically rejected: cycle with a→e1/2 + b→e9/2. Seq 5
		// places it after both edges in the sequence-major merge order,
		// so every arrival order folds the forward edges first and
		// rejects this one.
		stamp("c", "e5", 5, Delta{Op: OpAddIsA, Child: "vehicle", Parent: "sedan"}),
	}
}

func applyAll(t *testing.T, b *Base, ds []Delta) {
	t.Helper()
	for _, d := range ds {
		if _, err := b.Apply(d); err != nil {
			t.Fatalf("apply %s: %v", d, err)
		}
	}
}

// TestConvergenceUnderPermutation: every arrival order yields the same
// digest and the same semantic state.
func TestConvergenceUnderPermutation(t *testing.T) {
	ref := NewBase(nil, nil, nil)
	applyAll(t, ref, testDeltas())
	want := ref.Version()
	if want.Rejected != 1 {
		t.Fatalf("reference rejected = %d, want 1", want.Rejected)
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ds := testDeltas()
		rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		b := NewBase(nil, nil, nil)
		applyAll(t, b, ds)
		got := b.Version()
		if got.Digest != want.Digest || got.Deltas != want.Deltas || got.Rejected != want.Rejected {
			t.Fatalf("trial %d: version %+v, want %+v (order %v)", trial, got, want, ds)
		}
		// Semantic state identical, not just digests.
		st := b.Stage(semantic.FullConfig())
		res := st.ProcessEvent(message.E("job", "dev", "sedan", "x"))
		if !res.Event.Has("position") {
			t.Fatalf("trial %d: synonym not applied: %v", trial, res.Event)
		}
		if !res.Event.Has("vehicle") {
			t.Fatalf("trial %d: transitive hierarchy not applied", trial)
		}
		if st.Mappings().Has("m1") {
			t.Fatalf("trial %d: retired mapping still registered", trial)
		}
	}
}

// TestAddMappingReplaces: add_mapping supersedes an equal-name
// function — from genesis or an earlier delta — in every arrival
// order. Replace semantics keep a changed mapping one self-contained
// delta; the retire/add pair it replaces could fold reversed under
// content-hash stamping (FileStamp), rejecting the add and then
// retiring the mapping outright.
func TestAddMappingReplaces(t *testing.T) {
	decl := func(attr string, val string) *MapDecl {
		return &MapDecl{
			Name: "m", Attr: "position", Match: message.String("mainframe developer"),
			Derived: []DerivedPair{{Attr: attr, Val: message.String(val)}},
		}
	}
	fires := func(t *testing.T, b *Base, attr string) bool {
		t.Helper()
		st := b.Stage(semantic.FullConfig())
		return st.ProcessEvent(message.E("position", "mainframe developer")).Event.Has(attr)
	}

	// Genesis function replaced by a delta.
	maps := semantic.NewMappings()
	if err := maps.Add(decl("era", "1960-1980").Func()); err != nil {
		t.Fatal(err)
	}
	b := NewBase(nil, nil, maps)
	out, err := b.Apply(stamp("a", "e1", 1, Delta{Op: OpAddMapping, Map: decl("skill", "COBOL")}))
	if err != nil || out.Rejected || !out.Changed {
		t.Fatalf("replacing genesis mapping: %+v, %v", out, err)
	}
	if !fires(t, b, "skill") || fires(t, b, "era") {
		t.Fatal("genesis mapping not replaced")
	}

	// Earlier-delta function replaced, in both arrival orders (origin
	// "a" folds canonically before "b", so "b"'s version must win
	// regardless of which arrives first).
	d1 := stamp("a", "e1", 1, Delta{Op: OpAddMapping, Map: decl("era", "1960-1980")})
	d2 := stamp("b", "e1", 1, Delta{Op: OpAddMapping, Map: decl("skill", "COBOL")})
	var digests []string
	for _, order := range [][]Delta{{d1, d2}, {d2, d1}} {
		b := NewBase(nil, nil, nil)
		applyAll(t, b, order)
		v := b.Version()
		if v.Rejected != 0 {
			t.Fatalf("order %v: %d rejections, want 0", order, v.Rejected)
		}
		if !fires(t, b, "skill") || fires(t, b, "era") {
			t.Fatalf("order %v: canonical-last mapping version not live", order)
		}
		digests = append(digests, v.Digest)
	}
	if digests[0] != digests[1] {
		t.Fatalf("digests diverged across arrival orders: %v", digests)
	}
}

func TestDuplicateAndWatermarks(t *testing.T) {
	b := NewBase(nil, nil, nil)
	d := testDeltas()[0]
	out, err := b.Apply(d)
	if err != nil || !out.Applied || !out.Changed {
		t.Fatalf("first apply: %+v, %v", out, err)
	}
	if got := out.Affected; len(got) != 2 || got[0] != "job" || got[1] != "post" {
		t.Fatalf("affected = %v, want [job post]", got)
	}
	out, err = b.Apply(d)
	if err != nil || !out.Duplicate || out.Applied {
		t.Fatalf("duplicate apply: %+v, %v", out, err)
	}
	v := b.Version()
	if v.Deltas != 1 || v.Origins["a#e1"] != 1 {
		t.Fatalf("version after dup: %+v", v)
	}
}

func TestRejectionIsRecordedButInert(t *testing.T) {
	b := NewBase(nil, nil, nil)
	applyAll(t, b, []Delta{
		stamp("a", "e1", 1, Delta{Op: OpAddSynonym, Root: "position", Terms: []string{"job"}}),
	})
	// "job" is already a member of "position"; re-rooting must reject.
	out, err := b.Apply(stamp("a", "e1", 2, Delta{Op: OpAddSynonym, Root: "job", Terms: []string{"gig"}}))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Applied || !out.Rejected || out.Changed {
		t.Fatalf("conflicting synonym: %+v", out)
	}
	v := b.Version()
	if v.Deltas != 2 || v.Rejected != 1 {
		t.Fatalf("version: %+v", v)
	}
	// The rejected delta left no partial state behind.
	if b.syn.Known("gig") {
		t.Fatal("rejected delta partially applied")
	}
}

func TestGenesisIsNeverMutated(t *testing.T) {
	syn := semantic.NewSynonyms()
	if err := syn.AddGroup("position", "job"); err != nil {
		t.Fatal(err)
	}
	b := NewBase(syn, nil, nil)
	st := b.Stage(semantic.FullConfig())
	applyAll(t, b, []Delta{
		stamp("a", "e1", 2, Delta{Op: OpAddSynonym, Root: "salary", Terms: []string{"pay"}}),
		// Lower sequence number: out of merge order, forces a refold.
		stamp("a", "e0", 1, Delta{Op: OpAddConcept, Term: "car"}),
	})
	if syn.Known("pay") {
		t.Fatal("genesis synonyms were mutated")
	}
	// The stage built before the updates still serves the old snapshot
	// (engines install new snapshots explicitly via Replace).
	if got, _ := st.Synonyms().Canonical("pay"); got != "pay" {
		t.Fatalf("old stage snapshot changed: pay → %q", got)
	}
	if v := b.Version(); v.Rebuilds != 1 || v.Deltas != 2 {
		t.Fatalf("version: %+v", v)
	}
	// Genesis knowledge is still part of the current state.
	b.mu.Lock()
	cur := b.syn
	b.mu.Unlock()
	if got, _ := cur.Canonical("job"); got != "position" {
		t.Fatalf("genesis group lost after refold: job → %q", got)
	}
}

func TestOriginStamping(t *testing.T) {
	o := NewOrigin("b1")
	d1 := o.Stamp(Delta{Op: OpAddConcept, Term: "x"})
	d2 := o.Stamp(Delta{Op: OpAddConcept, Term: "y"})
	if !d1.Stamped() || !d2.Stamped() {
		t.Fatalf("stamp failed: %v %v", d1, d2)
	}
	if d1.Seq != 1 || d2.Seq != 2 || d1.Epoch != d2.Epoch || d1.Origin != "b1" {
		t.Fatalf("stamps: %v %v", d1, d2)
	}
	if again := o.Stamp(d1); again.Seq != 1 {
		t.Fatalf("re-stamping changed identity: %v", again)
	}
	o2 := NewOrigin("b1")
	if o2.Stamp(Delta{Op: OpAddConcept, Term: "z"}).Epoch == d1.Epoch {
		t.Fatal("two incarnations share an epoch")
	}
}

func TestApplyUnstampedFails(t *testing.T) {
	b := NewBase(nil, nil, nil)
	if _, err := b.Apply(Delta{Op: OpAddConcept, Term: "x"}); err == nil {
		t.Fatal("unstamped delta applied")
	}
}
