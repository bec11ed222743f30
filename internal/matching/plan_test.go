package matching

import (
	"math/rand"
	"reflect"
	"testing"

	"stopss/internal/message"
)

func TestPlanDedupAndPushdownOrder(t *testing.T) {
	preds := []message.Predicate{
		message.Pred("z", message.OpContains, message.String("x")),
		message.Exists("m"),
		message.Pred("a", message.OpEq, message.Int(1)),
		message.Pred("a", message.OpEq, message.Int(1)), // duplicate slot
		message.Pred("b", message.OpLt, message.Int(9)),
		message.Pred("a", message.OpEq, message.Int(0)), // same class: canonical order
	}
	p, err := Compile(message.NewSubscription(1, "c", preds...))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.Preds()); n != 5 {
		t.Fatalf("%d slots, want 5 (duplicate collapsed)", n)
	}
	var got []string
	for _, pp := range p.Preds() {
		got = append(got, pp.Pred.String())
	}
	want := []string{"(a = 0)", "(a = 1)", "(b < 9)", "(z contains x)", "(m exists)"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pushdown order = %q, want %q", got, want)
	}
	// The plan depends only on the predicate set: any permutation, with
	// any predicate repeated, compiles to identical slots.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		perm := append([]message.Predicate(nil), preds...)
		r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for k := r.Intn(3); k > 0; k-- {
			perm = append(perm, perm[r.Intn(len(perm))])
		}
		q, err := Compile(message.NewSubscription(message.SubID(i+2), "d", perm...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q.Preds(), p.Preds()) {
			t.Fatalf("permutation %v compiled to %v, want %v", perm, q.Preds(), p.Preds())
		}
	}
}

func TestPlanCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(message.NewSubscription(1, "c")); err == nil {
		t.Fatal("empty subscription must be rejected")
	}
	if _, err := Compile(message.NewSubscription(2, "c", message.Predicate{Attr: "a"})); err == nil {
		t.Fatal("invalid operator must be rejected")
	}
	for _, m := range allMatchers() {
		if err := m.Add(3, nil); err == nil {
			t.Fatalf("%s: nil plan must be rejected", m.Name())
		}
	}
}

func TestEventViewSemantics(t *testing.T) {
	// Every matcher must keep the reference semantics, including
	// not-exists beside event attributes no subscription names and
	// multi-valued attributes where only a later instance satisfies
	// the predicate.
	for _, m := range allMatchers() {
		if err := Index(m, message.NewSubscription(1, "c",
			message.Pred("vw", message.OpGe, message.Int(10)),
			message.Pred("vw-absent", message.OpNotExists, message.None()),
		)); err != nil {
			t.Fatal(err)
		}
		e := message.E("vw", 3, "vw", 15, "vw-noise-never-indexed", 1)
		if got := m.Match(e, nil); !reflect.DeepEqual(got, []message.SubID{1}) {
			t.Fatalf("%s: Match = %v, want [1]", m.Name(), got)
		}
		if got := m.Match(message.E("vw", 15, "vw-absent", 0), nil); len(got) != 0 {
			t.Fatalf("%s: not-exists violated, got %v", m.Name(), got)
		}
	}
}

func TestMatchAppendsToScratch(t *testing.T) {
	for _, m := range allMatchers() {
		if err := Index(m, message.NewSubscription(7, "c",
			message.Pred("sa", message.OpEq, message.Int(1)))); err != nil {
			t.Fatal(err)
		}
		scratch := []message.SubID{99}
		out := m.Match(message.E("sa", 1), scratch)
		if !reflect.DeepEqual(out, []message.SubID{99, 7}) {
			t.Fatalf("%s: Match append = %v, want [99 7]", m.Name(), out)
		}
	}
}
