package core

import (
	"fmt"
	"testing"

	"stopss/internal/knowledge"
	"stopss/internal/message"
	"stopss/internal/semantic"
)

func kbDelta(seq uint64, d knowledge.Delta) knowledge.Delta {
	d.Origin, d.Epoch, d.Seq = "t", "e1", seq
	return d
}

func newKBEngine(t testing.TB) (*Engine, *knowledge.Base) {
	t.Helper()
	base := knowledge.NewBase(nil, nil, nil)
	e := NewEngine(base.Stage(semantic.FullConfig()), WithKnowledge(base))
	return e, base
}

func mustSub(t testing.TB, e *Engine, id message.SubID, attr, val string) {
	t.Helper()
	s := message.NewSubscription(id, fmt.Sprintf("c%d", id),
		message.Pred(attr, message.OpEq, message.String(val)))
	if err := e.Subscribe(s); err != nil {
		t.Fatal(err)
	}
}

func matchIDs(t testing.TB, e *Engine, kv ...any) []message.SubID {
	t.Helper()
	res, err := e.Publish(message.E(kv...))
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func TestApplyKnowledgeSynonymReindexesTouchedSubs(t *testing.T) {
	e, _ := newKBEngine(t)
	mustSub(t, e, 1, "job", "dev")   // mentions the soon-to-be synonym
	mustSub(t, e, 2, "other", "dev") // untouched

	if got := matchIDs(t, e, "position", "dev"); len(got) != 0 {
		t.Fatalf("pre-delta match: %v", got)
	}

	rep, err := e.ApplyKnowledge(kbDelta(1, knowledge.Delta{
		Op: knowledge.OpAddSynonym, Root: "position", Terms: []string{"job"}}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied || !rep.Changed || rep.Rejected {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Reindexed != 1 || rep.FullReindex {
		t.Fatalf("reindexed %d (full=%v), want exactly the touched subscription", rep.Reindexed, rep.FullReindex)
	}

	// Subscription written as "job" now matches canonical events...
	if got := matchIDs(t, e, "position", "dev"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("post-delta canonical match: %v", got)
	}
	// ...and synonym events still match through event rewriting.
	if got := matchIDs(t, e, "job", "dev"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("post-delta synonym match: %v", got)
	}

	st := e.Stats()
	if st.KBDeltas != 1 || st.KBReindexed != 1 || st.KBVersion == "" {
		t.Fatalf("stats: %+v", st)
	}
}

func TestApplyKnowledgeHierarchyNeedsNoReindex(t *testing.T) {
	e, _ := newKBEngine(t)
	mustSub(t, e, 1, "car", "c1")

	rep, err := e.ApplyKnowledge(kbDelta(1, knowledge.Delta{
		Op: knowledge.OpAddIsA, Child: "sedan", Parent: "car"}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reindexed != 0 {
		t.Fatalf("hierarchy delta re-indexed %d subscriptions", rep.Reindexed)
	}
	// Event generalization picks the new edge up immediately.
	if got := matchIDs(t, e, "sedan", "c1"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("generalized match: %v", got)
	}
}

func TestApplyKnowledgeMappingLifecycle(t *testing.T) {
	e, _ := newKBEngine(t)
	mustSub(t, e, 1, "skill", "COBOL")

	decl := &knowledge.MapDecl{
		Name: "mainframe", Attr: "position", Match: message.String("mainframe developer"),
		Derived: []knowledge.DerivedPair{{Attr: "skill", Val: message.String("COBOL")}},
	}
	if _, err := e.ApplyKnowledge(kbDelta(1, knowledge.Delta{Op: knowledge.OpAddMapping, Map: decl})); err != nil {
		t.Fatal(err)
	}
	if got := matchIDs(t, e, "position", "mainframe developer"); len(got) != 1 {
		t.Fatalf("mapping-derived match: %v", got)
	}
	if _, err := e.ApplyKnowledge(kbDelta(2, knowledge.Delta{Op: knowledge.OpRetire, Name: "mainframe"})); err != nil {
		t.Fatal(err)
	}
	if got := matchIDs(t, e, "position", "mainframe developer"); len(got) != 0 {
		t.Fatalf("retired mapping still fires: %v", got)
	}
}

func TestApplyKnowledgeRejectedAndDuplicate(t *testing.T) {
	e, _ := newKBEngine(t)
	d := kbDelta(1, knowledge.Delta{Op: knowledge.OpAddIsA, Child: "a", Parent: "b"})
	if _, err := e.ApplyKnowledge(d); err != nil {
		t.Fatal(err)
	}
	rep, err := e.ApplyKnowledge(d)
	if err != nil || !rep.Duplicate {
		t.Fatalf("duplicate: %+v, %v", rep, err)
	}
	rep, err = e.ApplyKnowledge(kbDelta(2, knowledge.Delta{Op: knowledge.OpAddIsA, Child: "b", Parent: "a"}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rejected || rep.Changed || rep.Reindexed != 0 {
		t.Fatalf("cycle delta: %+v", rep)
	}
	st := e.Stats()
	if st.KBDeltas != 2 || st.KBRejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestApplyKnowledgeSyntacticModeSkipsReindex(t *testing.T) {
	base := knowledge.NewBase(nil, nil, nil)
	e := NewEngine(base.Stage(semantic.FullConfig()), WithKnowledge(base), WithMode(Syntactic))
	mustSub(t, e, 1, "job", "dev")
	rep, err := e.ApplyKnowledge(kbDelta(1, knowledge.Delta{
		Op: knowledge.OpAddSynonym, Root: "position", Terms: []string{"job"}}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reindexed != 0 {
		t.Fatalf("syntactic mode re-indexed %d", rep.Reindexed)
	}
	// Switching to semantic mode later re-canonicalizes from originals
	// under the post-delta stage.
	if err := e.SetMode(Semantic); err != nil {
		t.Fatal(err)
	}
	if got := matchIDs(t, e, "position", "dev"); len(got) != 1 {
		t.Fatalf("post-mode-switch match: %v", got)
	}
}

// TestApplyKnowledgeSynonymInvalidatesExactly: a synonym delta drops the
// memoized expansions whose raw terms it touched — a stale entry would
// keep matching the pre-delta vocabulary — and keeps every other entry.
func TestApplyKnowledgeSynonymInvalidatesExactly(t *testing.T) {
	e, _ := newKBEngine(t)
	mustSub(t, e, 1, "position", "dev")

	// "job" is unknown vocabulary pre-delta: no match, and the (miss,
	// hit) pair proves the second publish was served from the memo.
	for i := 0; i < 2; i++ {
		if got := matchIDs(t, e, "job", "dev"); len(got) != 0 {
			t.Fatalf("publish %d: pre-delta matches %v", i, got)
		}
	}
	matchIDs(t, e, "other", "x") // a second entry the delta does not touch
	st := e.Stats()
	if st.ExpansionMisses != 2 || st.ExpansionHits != 1 || st.ExpansionSize != 2 {
		t.Fatalf("warm-up stats: misses=%d hits=%d size=%d, want 2/1/2",
			st.ExpansionMisses, st.ExpansionHits, st.ExpansionSize)
	}

	if _, err := e.ApplyKnowledge(kbDelta(1, knowledge.Delta{
		Op: knowledge.OpAddSynonym, Root: "position", Terms: []string{"job"}})); err != nil {
		t.Fatal(err)
	}
	if st = e.Stats(); st.ExpansionInvalidated != 1 || st.ExpansionSize != 1 {
		t.Fatalf("after the delta: invalidated=%d size=%d, want exactly the (job, dev) entry dropped",
			st.ExpansionInvalidated, st.ExpansionSize)
	}
	// The dropped event re-expands under the new stage, canonicalizes to
	// "position" and matches; the surviving one is served from the memo.
	if got := matchIDs(t, e, "job", "dev"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("post-delta matches: %v, want [1] (stale expansion served?)", got)
	}
	matchIDs(t, e, "other", "x")
	if st = e.Stats(); st.ExpansionMisses != 3 || st.ExpansionHits != 2 || st.ExpansionSize != 2 {
		t.Fatalf("post-delta stats: misses=%d hits=%d size=%d, want 3/2/2",
			st.ExpansionMisses, st.ExpansionHits, st.ExpansionSize)
	}
}

// TestApplyKnowledgeIsAFlushesExpansions: hierarchy deltas restructure
// the expansion stages, so every memoized expansion goes.
func TestApplyKnowledgeIsAFlushesExpansions(t *testing.T) {
	e, _ := newKBEngine(t)
	matchIDs(t, e, "job", "dev")
	matchIDs(t, e, "other", "x")
	if st := e.Stats(); st.ExpansionSize != 2 {
		t.Fatalf("warm-up cache size %d, want 2", st.ExpansionSize)
	}
	if _, err := e.ApplyKnowledge(kbDelta(1, knowledge.Delta{
		Op: knowledge.OpAddIsA, Child: "dev", Parent: "engineer"})); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ExpansionSize != 0 || st.ExpansionInvalidated != 2 {
		t.Fatalf("is-a delta left size=%d invalidated=%d, want a flush of both entries",
			st.ExpansionSize, st.ExpansionInvalidated)
	}
}

// TestExpansionCacheDisabled: capacity 0 turns memoization off; every
// publish runs the stage and no cache counter moves, deltas included.
func TestExpansionCacheDisabled(t *testing.T) {
	base := knowledge.NewBase(nil, nil, nil)
	e := NewEngine(base.Stage(semantic.FullConfig()), WithKnowledge(base), WithExpansionCache(0))
	for i := 0; i < 3; i++ {
		matchIDs(t, e, "job", "dev")
	}
	if _, err := e.ApplyKnowledge(kbDelta(1, knowledge.Delta{
		Op: knowledge.OpAddSynonym, Root: "position", Terms: []string{"job"}})); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ExpansionHits != 0 || st.ExpansionMisses != 0 || st.ExpansionEvictions != 0 ||
		st.ExpansionInvalidated != 0 || st.ExpansionSize != 0 {
		t.Fatalf("disabled cache moved counters: %+v", st)
	}
	if st.Events != 3 {
		t.Fatalf("events: %d, want 3", st.Events)
	}
}

// TestApplyKnowledgeOutOfOrderReindexesTouched: an out-of-merge-order
// delta refolds the base but still re-indexes incrementally — the
// refold's changed-term diff scopes the re-index to the subscriptions
// mentioning a changed term.
func TestApplyKnowledgeOutOfOrderReindexesTouched(t *testing.T) {
	e, _ := newKBEngine(t)
	const n = 16
	for i := 1; i <= n; i++ {
		attr := "job"
		if i%2 == 0 {
			attr = "untouched"
		}
		mustSub(t, e, message.SubID(i), attr, "dev")
	}

	// In-order delta from origin "b", then origin "a" at the same
	// sequence number: "a" sorts before the tail and forces a refold.
	if _, err := e.ApplyKnowledge(knowledge.Delta{
		Origin: "b", Epoch: "e1", Seq: 1,
		Op: knowledge.OpAddSynonym, Root: "salary", Terms: []string{"pay"},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.ApplyKnowledge(knowledge.Delta{
		Origin: "a", Epoch: "e1", Seq: 1,
		Op: knowledge.OpAddSynonym, Root: "position", Terms: []string{"job"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Refolded || rep.FullReindex {
		t.Fatalf("out-of-order report: %+v", rep)
	}
	if rep.Reindexed != n/2 {
		t.Fatalf("re-indexed %d, want the %d subscriptions mentioning %q", rep.Reindexed, n/2, "job")
	}
	if len(rep.Affected) != 1 || rep.Affected[0] != "job" {
		t.Fatalf("affected = %v, want [job]", rep.Affected)
	}
	if got := matchIDs(t, e, "position", "dev"); len(got) != n/2 {
		t.Fatalf("post-refold matches: %d, want %d", len(got), n/2)
	}
	if st := e.Stats(); st.KBFullReindexes != 0 {
		t.Fatalf("full re-indexes: %d", st.KBFullReindexes)
	}
}

func TestApplyKnowledgeWithoutBase(t *testing.T) {
	e := NewEngine(nil)
	if _, err := e.ApplyKnowledge(kbDelta(1, knowledge.Delta{Op: knowledge.OpAddConcept, Term: "x"})); err == nil {
		t.Fatal("apply without base succeeded")
	}
	if e.Knowledge() != nil {
		t.Fatal("unbound engine reports a base")
	}
}
